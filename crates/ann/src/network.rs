//! The feedforward network: dense layers, the scalar forward pass, the tiled
//! batch kernel (DESIGN.md §5.3), and an operation count for timing models.

use adamant_json::impl_json_struct;

use crate::activation::Activation;
use crate::rng::InitRng;

/// One fully connected layer.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Layer {
    pub inputs: usize,
    pub outputs: usize,
    /// Row-major `outputs × inputs` weight matrix.
    pub weights: Vec<f64>,
    pub biases: Vec<f64>,
    pub activation: Activation,
}

impl Layer {
    fn new(inputs: usize, outputs: usize, activation: Activation, rng: &mut InitRng) -> Self {
        // FANN-style init: uniform in ±(1/sqrt(fan_in)).
        let half_range = 1.0 / (inputs as f64).sqrt();
        Layer {
            inputs,
            outputs,
            weights: (0..inputs * outputs)
                .map(|_| rng.uniform(half_range))
                .collect(),
            biases: (0..outputs).map(|_| rng.uniform(half_range)).collect(),
            activation,
        }
    }

    fn forward_into(&self, input: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.outputs);
        for o in 0..self.outputs {
            let row = &self.weights[o * self.inputs..(o + 1) * self.inputs];
            let mut sum = self.biases[o];
            for (w, x) in row.iter().zip(input) {
                sum += w * x;
            }
            out.push(sum);
        }
        // Over the finished slice, not per push: a loop that vectorises.
        self.activation.apply_slice(out);
    }

    /// [`forward_into`](Self::forward_into) for [`TILE`] rows at once: input
    /// `i` of the rows is `src[i * src_stride..][..TILE]`, output `o` goes to
    /// `dst[o * TILE..][..TILE]`. Each weight is broadcast against `TILE`
    /// independent accumulators, so SIMD runs *across the rows*; Rust never
    /// contracts `a * b + c`, so each lane does `forward_into`'s operations
    /// in its order (bias, inputs in order, activation): bit-identical at
    /// any vector width.
    #[inline(always)]
    fn forward_tile(&self, src: &[f64], src_stride: usize, dst: &mut [f64]) {
        for o in 0..self.outputs {
            let mut acc = [self.biases[o]; TILE];
            let row = &self.weights[o * self.inputs..(o + 1) * self.inputs];
            for (i, &w) in row.iter().enumerate() {
                let lane = &src[i * src_stride..][..TILE];
                for (a, &x) in acc.iter_mut().zip(lane) {
                    *a += w * x;
                }
            }
            dst[o * TILE..][..TILE].copy_from_slice(&acc);
        }
        // Over the finished tile, not per `acc`: that constant-length loop
        // unrolls into scalars and takes the multiply-adds with it.
        self.activation.apply_slice(&mut dst[..self.outputs * TILE]);
    }
}

impl_json_struct!(Layer {
    inputs,
    outputs,
    weights,
    biases,
    activation,
});

/// Rows per tile of the batch kernel: an accumulator lane is four AVX-512
/// or eight AVX2 registers (measured against 8/16/64 in DESIGN.md §5.3).
const TILE: usize = 32;
/// Widest layer output the tile kernel's stack buffers (8 KB each) hold.
const TILE_WIDTH: usize = 32;

/// The batch kernel: rows `0..tiled` (a multiple of [`TILE`]) of the
/// column-major `cols` go input → hidden → output one tile at a time. The
/// first layer reads its lanes from `cols` (stride `rows`), every later
/// activation lives in two stack buffers that never leave L1, and the last
/// layer's lanes are copied into the column-major `out`.
///
/// `#[inline(always)]`, so each `#[target_feature]` wrapper below compiles
/// its own copy of this body, `exp` included, at that wrapper's width.
#[inline(always)]
fn forward_tiles(layers: &[Layer], cols: &[f64], rows: usize, tiled: usize, out: &mut [f64]) {
    let (mut a, mut b) = ([0.0; TILE * TILE_WIDTH], [0.0; TILE * TILE_WIDTH]);
    let (mut current, mut next) = (&mut a, &mut b);
    let out_dim = layers.last().map_or(0, |l| l.outputs);
    for r0 in (0..tiled).step_by(TILE) {
        for (n, layer) in layers.iter().enumerate() {
            let (src, src_stride) = match n {
                0 => (&cols[r0..], rows),
                _ => (&current[..], TILE),
            };
            layer.forward_tile(src, src_stride, &mut next[..]);
            std::mem::swap(&mut current, &mut next);
        }
        for o in 0..out_dim {
            out[o * rows + r0..][..TILE].copy_from_slice(&current[o * TILE..][..TILE]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn forward_tiles_avx512(l: &[Layer], cols: &[f64], rows: usize, tiled: usize, out: &mut [f64]) {
    forward_tiles(l, cols, rows, tiled, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn forward_tiles_avx2(l: &[Layer], cols: &[f64], rows: usize, tiled: usize, out: &mut [f64]) {
    forward_tiles(l, cols, rows, tiled, out);
}

/// [`forward_tiles`] at the widest vector ISA this CPU has: the crate's one
/// `unsafe` site.
#[allow(unsafe_code)]
fn forward_tiles_widest(l: &[Layer], cols: &[f64], rows: usize, tiled: usize, out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU was just found to have AVX-512F, all that
            // calling a function compiled with it enabled requires.
            return unsafe { forward_tiles_avx512(l, cols, rows, tiled, out) };
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: as above, for AVX2.
            return unsafe { forward_tiles_avx2(l, cols, rows, tiled, out) };
        }
    }
    forward_tiles(l, cols, rows, tiled, out);
}

/// Reusable ping-pong buffers for [`NeuralNetwork::run_scratch`] and the
/// scalar rows of [`NeuralNetwork::run_batch_cols_into`]: after the first
/// call, repeated forward passes through the same scratch allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    current: Vec<f64>,
    next: Vec<f64>,
}

impl BatchScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A fully connected feedforward neural network (FANN-style).
///
/// # Examples
///
/// ```
/// use adamant_ann::{Activation, NeuralNetwork};
///
/// let net = NeuralNetwork::new(&[2, 4, 1], Activation::fann_default(), 42);
/// let out = net.run(&[0.3, 0.7]);
/// assert_eq!(out.len(), 1);
/// assert!((0.0..=1.0).contains(&out[0]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NeuralNetwork {
    pub(crate) layers: Vec<Layer>,
}

impl NeuralNetwork {
    /// Builds a network with the given layer sizes (`[inputs, hidden...,
    /// outputs]`), one activation everywhere, and deterministic random
    /// weights from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two layer sizes are given or any size is zero.
    pub fn new(layer_sizes: &[usize], activation: Activation, seed: u64) -> Self {
        assert!(
            layer_sizes.len() >= 2,
            "a network needs at least input and output layers"
        );
        assert!(
            layer_sizes.iter().all(|&n| n > 0),
            "layer sizes must be positive"
        );
        let mut rng = InitRng::new(seed);
        let layers = layer_sizes
            .windows(2)
            .map(|w| Layer::new(w[0], w[1], activation, &mut rng))
            .collect();
        NeuralNetwork { layers }
    }

    /// Number of input neurons.
    pub fn input_size(&self) -> usize {
        self.layers.first().map_or(0, |l| l.inputs)
    }

    /// Number of output neurons.
    pub fn output_size(&self) -> usize {
        self.layers.last().map_or(0, |l| l.outputs)
    }

    /// Layer sizes including input and output.
    pub fn layer_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![self.input_size()];
        sizes.extend(self.layers.iter().map(|l| l.outputs));
        sizes
    }

    /// Total trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.len() + l.biases.len())
            .sum()
    }

    /// Floating-point operations per query (multiply-adds counted as two
    /// ops, plus one activation evaluation per neuron).
    ///
    /// The count depends only on the architecture — a feedforward query
    /// touches every connection exactly once regardless of input values,
    /// which is why the paper's ANN responds in constant, predictable time.
    pub fn ops_per_query(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| (2 * l.inputs * l.outputs + 2 * l.outputs) as u64)
            .sum()
    }

    /// Runs a forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from [`input_size`](Self::input_size).
    pub fn run(&self, input: &[f64]) -> Vec<f64> {
        let mut scratch = BatchScratch::new();
        self.run_scratch(input, &mut scratch).to_vec()
    }

    /// [`run`](Self::run) through caller-provided buffers: returns the
    /// output activations as a slice borrowed from `scratch`. Bit-identical
    /// to `run` — same layers, same accumulation order — but a hot loop
    /// querying through one scratch never allocates after warm-up.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from [`input_size`](Self::input_size).
    pub fn run_scratch<'a>(&self, input: &[f64], scratch: &'a mut BatchScratch) -> &'a [f64] {
        assert_eq!(
            input.len(),
            self.input_size(),
            "input length must match the input layer"
        );
        scratch.current.clear();
        scratch.current.extend_from_slice(input);
        self.forward_scratch(scratch);
        &scratch.current
    }

    /// Runs the layers over `scratch.current`, leaving the output there.
    fn forward_scratch(&self, scratch: &mut BatchScratch) {
        for layer in &self.layers {
            layer.forward_into(&scratch.current, &mut scratch.next);
            std::mem::swap(&mut scratch.current, &mut scratch.next);
        }
    }

    /// Column-major batched forward pass: `cols` is the flat `input_size ×
    /// rows` matrix with feature `i`'s values for every query stored
    /// contiguously at `cols[i*rows..(i+1)*rows]`, and `out` becomes the
    /// column-major `output_size × rows` activation matrix (`out[o*rows +
    /// r]` is output `o` for query `r`), bit-identical to per-row
    /// [`run`](Self::run). Full 32-row tiles go through the tile kernel at
    /// the widest vector ISA this CPU has; the rows past the last full tile
    /// (every row, for a network with a layer wider than 32) take `run`'s
    /// scalar path. Nothing allocates once `scratch` and `out` are warm.
    ///
    /// # Panics
    ///
    /// Panics if `cols.len() != rows * input_size`.
    pub fn run_batch_cols_into(
        &self,
        cols: &[f64],
        rows: usize,
        scratch: &mut BatchScratch,
        out: &mut Vec<f64>,
    ) {
        let (in_dim, out_dim) = (self.input_size(), self.output_size());
        assert_eq!(
            cols.len(),
            rows * in_dim,
            "batch length must be rows × input size"
        );
        // No clear: every element is overwritten, a warm `out` is not refilled.
        out.resize(rows * out_dim, 0.0);
        let fits = self.layers.iter().all(|l| l.outputs <= TILE_WIDTH);
        let tiled = if fits { rows - rows % TILE } else { 0 };
        if tiled > 0 {
            forward_tiles_widest(&self.layers, cols, rows, tiled, out);
        }
        for r in tiled..rows {
            scratch.current.clear();
            scratch
                .current
                .extend((0..in_dim).map(|i| cols[i * rows + r]));
            self.forward_scratch(scratch);
            for (o, &y) in scratch.current.iter().enumerate() {
                out[o * rows + r] = y;
            }
        }
    }

    /// Forward pass recording every layer's activations into `activations`
    /// (used by backpropagation). Index 0 is the input itself.
    ///
    /// The caller's buffers are reused in place: after the first example,
    /// a whole training epoch's forward passes allocate nothing.
    pub(crate) fn run_full_into(&self, input: &[f64], activations: &mut Vec<Vec<f64>>) {
        activations.resize_with(self.layers.len() + 1, Vec::new);
        activations[0].clear();
        activations[0].extend_from_slice(input);
        for (i, layer) in self.layers.iter().enumerate() {
            let (done, rest) = activations.split_at_mut(i + 1);
            layer.forward_into(&done[i], &mut rest[0]);
        }
    }

    /// Mean squared error over a dataset (FANN's stopping criterion).
    pub fn mse(&self, inputs: &[Vec<f64>], targets: &[Vec<f64>]) -> f64 {
        let mut current = Vec::new();
        let mut next = Vec::new();
        self.mse_scratch(inputs, targets, &mut current, &mut next)
    }

    /// [`mse`](Self::mse) with caller-provided forward-pass buffers, so hot
    /// loops (the incremental trainer's per-epoch stopping check) can
    /// evaluate the error without allocating. Bit-identical to `mse`: the
    /// arithmetic and accumulation order are the same.
    pub(crate) fn mse_scratch(
        &self,
        inputs: &[Vec<f64>],
        targets: &[Vec<f64>],
        current: &mut Vec<f64>,
        next: &mut Vec<f64>,
    ) -> f64 {
        assert_eq!(inputs.len(), targets.len());
        if inputs.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        let mut count = 0usize;
        for (input, target) in inputs.iter().zip(targets) {
            assert_eq!(
                input.len(),
                self.input_size(),
                "input length must match the input layer"
            );
            current.clear();
            current.extend_from_slice(input);
            for layer in &self.layers {
                layer.forward_into(current, next);
                std::mem::swap(current, next);
            }
            for (o, t) in current.iter().zip(target) {
                total += (o - t) * (o - t);
                count += 1;
            }
        }
        total / count as f64
    }
}

impl_json_struct!(NeuralNetwork { layers });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_shapes() {
        let net = NeuralNetwork::new(&[7, 24, 6], Activation::fann_default(), 1);
        assert_eq!(net.input_size(), 7);
        assert_eq!(net.output_size(), 6);
        assert_eq!(net.layer_sizes(), vec![7, 24, 6]);
        assert_eq!(net.parameter_count(), 7 * 24 + 24 + 24 * 6 + 6);
    }

    #[test]
    fn ops_per_query_matches_architecture() {
        let net = NeuralNetwork::new(&[7, 24, 6], Activation::fann_default(), 1);
        let expected = (2 * 7 * 24 + 2 * 24) + (2 * 24 * 6 + 2 * 6);
        assert_eq!(net.ops_per_query(), expected as u64);
    }

    #[test]
    fn same_seed_same_network() {
        let a = NeuralNetwork::new(&[3, 5, 2], Activation::fann_default(), 9);
        let b = NeuralNetwork::new(&[3, 5, 2], Activation::fann_default(), 9);
        assert_eq!(a, b);
        assert_eq!(a.run(&[0.1, 0.2, 0.3]), b.run(&[0.1, 0.2, 0.3]));
    }

    #[test]
    fn different_seeds_differ() {
        let a = NeuralNetwork::new(&[3, 5, 2], Activation::fann_default(), 9);
        let b = NeuralNetwork::new(&[3, 5, 2], Activation::fann_default(), 10);
        assert_ne!(a.run(&[0.1, 0.2, 0.3]), b.run(&[0.1, 0.2, 0.3]));
    }

    #[test]
    fn sigmoid_outputs_bounded() {
        let net = NeuralNetwork::new(&[4, 8, 3], Activation::fann_default(), 3);
        let out = net.run(&[10.0, -10.0, 0.0, 1.0]);
        assert!(out.iter().all(|&y| (0.0..=1.0).contains(&y)));
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn wrong_input_size_panics() {
        let net = NeuralNetwork::new(&[2, 2], Activation::fann_default(), 1);
        net.run(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn too_few_layers_panics() {
        NeuralNetwork::new(&[4], Activation::fann_default(), 1);
    }

    #[test]
    fn mse_of_perfect_predictor_is_zero() {
        let net = NeuralNetwork::new(&[1, 2, 1], Activation::fann_default(), 1);
        let input = vec![vec![0.5]];
        let target = vec![net.run(&[0.5])];
        assert!(net.mse(&input, &target) < 1e-15);
    }

    #[test]
    fn json_round_trip() {
        let net = NeuralNetwork::new(&[3, 4, 2], Activation::fann_default(), 5);
        let json = adamant_json::to_string(&net);
        let back: NeuralNetwork = adamant_json::from_str(&json).unwrap();
        // The printer is shortest-round-trip, so weights survive exactly.
        assert_eq!(net, back);
        let input = [0.2, -0.4, 0.9];
        assert_eq!(net.run(&input), back.run(&input));
    }

    #[test]
    fn scratch_run_matches_allocating_run() {
        let net = NeuralNetwork::new(&[4, 9, 3], Activation::fann_default(), 11);
        let mut scratch = BatchScratch::new();
        let input = [0.2, -1.5, 0.0, 3.4];
        assert_eq!(net.run_scratch(&input, &mut scratch), net.run(&input));
    }

    #[test]
    fn empty_batch_yields_empty_output() {
        let net = NeuralNetwork::new(&[3, 2], Activation::fann_default(), 1);
        let mut scratch = BatchScratch::new();
        let mut out = vec![99.0];
        net.run_batch_cols_into(&[], 0, &mut scratch, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "rows × input size")]
    fn misshapen_batch_panics() {
        let net = NeuralNetwork::new(&[3, 2], Activation::fann_default(), 1);
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        net.run_batch_cols_into(&[1.0, 2.0], 2, &mut scratch, &mut out);
    }

    type TileKernel = fn(&[Layer], &[f64], usize, usize, &mut [f64]);

    /// Every instantiation of the tile kernel this host can run, called
    /// directly rather than through `forward_tiles_widest`.
    #[allow(unsafe_code)]
    fn tiers() -> Vec<(&'static str, TileKernel)> {
        let mut tiers: Vec<(&'static str, TileKernel)> = vec![("baseline", forward_tiles)];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 was just detected.
                tiers.push(("avx2", |l, c, r, t, o| unsafe {
                    forward_tiles_avx2(l, c, r, t, o)
                }));
            }
            if is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F was just detected.
                tiers.push(("avx512f", |l, c, r, t, o| unsafe {
                    forward_tiles_avx512(l, c, r, t, o)
                }));
            }
        }
        tiers
    }

    /// Asserts bit-equality with per-row `run` over `rows` random queries:
    /// of every tier's kernel on the full tiles (when the network fits the
    /// tile buffers), and of `run_batch_cols_into` on every row.
    fn assert_batch_matches_run(net: &NeuralNetwork, rows: usize, rng: &mut InitRng, what: &str) {
        let (in_dim, out_dim) = (net.input_size(), net.output_size());
        let cols: Vec<f64> = (0..rows * in_dim).map(|_| rng.uniform(3.0)).collect();
        let expected: Vec<Vec<f64>> = (0..rows)
            .map(|r| net.run(&(0..in_dim).map(|i| cols[i * rows + r]).collect::<Vec<_>>()))
            .collect();
        let assert_rows = |out: &[f64], upto: usize, tier: &str| {
            assert_eq!(out.len(), rows * out_dim, "{what} {tier}");
            for (r, row) in expected.iter().enumerate().take(upto) {
                for (o, y) in row.iter().enumerate() {
                    assert_eq!(
                        out[o * rows + r].to_bits(),
                        y.to_bits(),
                        "{what} {tier}: rows {rows} row {r} output {o}"
                    );
                }
            }
        };
        if net.layers.iter().all(|l| l.outputs <= TILE_WIDTH) {
            let tiled = rows - rows % TILE;
            for (tier, kernel) in tiers() {
                let mut out = vec![f64::NAN; rows * out_dim];
                kernel(&net.layers, &cols, rows, tiled, &mut out);
                assert_rows(&out, tiled, tier);
                // The rows past the last full tile are not the kernel's.
                assert!((tiled..rows).all(|r| out[r].is_nan()), "{what} {tier}");
            }
        }
        // A stale, wrongly sized `out` must be fully overwritten.
        let mut out = vec![f64::NAN; 5];
        net.run_batch_cols_into(&cols, rows, &mut BatchScratch::new(), &mut out);
        assert_rows(&out, rows, "run_batch_cols_into");
    }

    /// Property test: over 200 random architectures (every activation, one
    /// or two hidden layers or none) and batch sizes on both sides of every
    /// tile boundary, each ISA tier of the batch kernel equals per-row `run`
    /// bit for bit.
    #[test]
    fn every_kernel_tier_is_bit_identical_to_scalar_run() {
        const ROWS: [usize; 7] = [0, 1, 31, 32, 33, 64, 1031];
        let mut rng = InitRng::new(0xBA7C4);
        for case in 0..200u64 {
            let inputs = 1 + (case % 11) as usize;
            let hidden = 1 + ((case / 11) % 17) as usize;
            let outputs = 1 + (case % 7) as usize;
            let sizes = match case % 5 {
                0 => vec![inputs, outputs],
                1 => vec![inputs, hidden, 1 + hidden / 2, outputs],
                _ => vec![inputs, hidden, outputs],
            };
            let activation = match case % 4 {
                0 => Activation::SymmetricSigmoid { steepness: 0.7 },
                1 => Activation::Linear,
                _ => Activation::fann_default(),
            };
            let net = NeuralNetwork::new(&sizes, activation, 0x5EED ^ case);
            // 1031 rows on every eighth case keeps the test quick.
            let rows = ROWS[case as usize % if case % 8 == 0 { 7 } else { 6 }];
            assert_batch_matches_run(&net, rows, &mut rng, &format!("case {case}"));
        }
        let net = NeuralNetwork::new(&[9, 24, 8], Activation::fann_default(), 3);
        for rows in ROWS {
            assert_batch_matches_run(&net, rows, &mut rng, "selector shape");
        }
    }

    #[test]
    fn a_network_wider_than_the_tile_buffers_falls_back_to_the_scalar_rows() {
        let mut rng = InitRng::new(7);
        let net = NeuralNetwork::new(&[5, TILE_WIDTH + 1, 3], Activation::fann_default(), 11);
        for rows in [32, 97] {
            assert_batch_matches_run(&net, rows, &mut rng, "wide");
        }
        let widest = NeuralNetwork::new(&[5, TILE_WIDTH, 3], Activation::fann_default(), 11);
        assert_batch_matches_run(&widest, 64, &mut rng, "exactly the tile width");
    }
}
