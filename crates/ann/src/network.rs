//! The feedforward network: dense layers, the scalar forward pass, the tiled
//! batch and gradient kernels (DESIGN.md §5.3), and an operation count for
//! timing models.

use std::ops::Range;

use adamant_json::impl_json_struct;
use adamant_proto::splitmix64;

use crate::activation::Activation;

/// The next draw of the SplitMix64 stream `state`, uniform in
/// `[-half_range, half_range)`; a seed's stream starts one step past it.
pub(crate) fn uniform(state: &mut u64, half_range: f64) -> f64 {
    let unit = (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    (unit * 2.0 - 1.0) * half_range
}

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
    fn new(inputs: usize, outputs: usize, activation: Activation, rng: &mut u64) -> Self {
        // FANN-style init: uniform in ±(1/sqrt(fan_in)).
        let half_range = 1.0 / (inputs as f64).sqrt();
        Layer {
            inputs,
            outputs,
            weights: (0..inputs * outputs)
                .map(|_| uniform(rng, half_range))
                .collect(),
            biases: (0..outputs).map(|_| uniform(rng, half_range)).collect(),
            activation,
        }
    }

    pub(crate) fn forward_into(&self, input: &[f64], out: &mut Vec<f64>) {
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

    /// [`forward_into`](Self::forward_into) for `L` rows at once: input `i`
    /// of the rows is `src[i * src_stride..][..L]`, output `o` goes to
    /// `dst[o * L..][..L]`. Each weight is broadcast against `L` independent
    /// accumulators, so SIMD runs *across the rows*; Rust never
    /// contracts `a * b + c`, so each lane does `forward_into`'s operations
    /// in its order (bias, inputs in order, activation): bit-identical at
    /// any vector width.
    #[inline(always)]
    fn forward_tile<const L: usize>(&self, src: &[f64], src_stride: usize, dst: &mut [f64]) {
        for o in 0..self.outputs {
            let mut acc = [self.biases[o]; L];
            let row = &self.weights[o * self.inputs..(o + 1) * self.inputs];
            for (i, &w) in row.iter().enumerate() {
                let lane = &src[i * src_stride..][..L];
                for (a, &x) in acc.iter_mut().zip(lane) {
                    *a += w * x;
                }
            }
            dst[o * L..][..L].copy_from_slice(&acc);
        }
        // Over the finished tile, not per `acc`: that constant-length loop
        // unrolls into scalars and takes the multiply-adds with it.
        self.activation.apply_slice(&mut dst[..self.outputs * L]);
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
/// Widest layer output the batch kernel's stack buffers (8 KB each) hold.
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
            layer.forward_tile::<TILE>(src, src_stride, &mut next[..]);
            std::mem::swap(&mut current, &mut next);
        }
        for o in 0..out_dim {
            out[o * rows + r0..][..TILE].copy_from_slice(&current[o * TILE..][..TILE]);
        }
    }
}

/// Outputs per gradient-update chain: the sums' rows are padded to a
/// multiple, so every update is whole vectors at every ISA width.
const CHUNK: usize = 8;
/// The bias's input lane.
const ONES: [f64; TILE] = [1.0; TILE];

/// A training set laid out for [`gradient_tiles`], with every buffer a
/// sweep needs: built once per training, reused by every sweep.
pub(crate) struct TrainingTiles {
    /// Lane stride: every row, then a tile of zeros, so a tile may start at
    /// any row.
    stride: usize,
    /// Column-major `input × stride` and `output × stride` lanes.
    inputs: Vec<f64>,
    targets: Vec<f64>,
    /// Doubles per tile buffer: [`TILE`] × the widest layer, padded.
    tile_len: usize,
    /// Every layer's activation tile; the deltas in flight, lane-major;
    /// the current deltas transposed to rows.
    acts: Vec<f64>,
    delta: Vec<f64>,
    below: Vec<f64>,
    by_row: Vec<f64>,
    /// Per layer, `dE/dw` as `[input][output]` rows and a last row of
    /// `dE/db`, each row padded to whole [`CHUNK`]s.
    sums: Vec<Vec<f64>>,
    /// The last sweep's `(dE/dw, dE/db)` per layer, laid out as the layer.
    pub(crate) grads: Vec<(Vec<f64>, Vec<f64>)>,
}

impl TrainingTiles {
    /// Lays out `inputs`/`targets` for `net`.
    pub(crate) fn new(net: &NeuralNetwork, inputs: &[Vec<f64>], targets: &[Vec<f64>]) -> Self {
        let stride = inputs.len() + TILE;
        let lanes = |set: &[Vec<f64>], dim: usize| {
            let mut cols = vec![0.0; dim * stride];
            for (r, row) in set.iter().enumerate() {
                for (i, &x) in row.iter().enumerate() {
                    cols[i * stride + r] = x;
                }
            }
            cols
        };
        let padded = |l: &Layer| l.outputs.next_multiple_of(CHUNK);
        let tile_len = TILE * net.layers.iter().map(padded).max().unwrap_or(0);
        TrainingTiles {
            stride,
            inputs: lanes(inputs, net.input_size()),
            targets: lanes(targets, net.output_size()),
            tile_len,
            acts: vec![0.0; net.layers.len() * tile_len],
            delta: vec![0.0; tile_len],
            below: vec![0.0; tile_len],
            by_row: vec![0.0; tile_len],
            sums: net
                .layers
                .iter()
                .map(|l| vec![0.0; (l.inputs + 1) * padded(l)])
                .collect(),
            grads: net
                .layers
                .iter()
                .map(|l| (vec![0.0; l.weights.len()], vec![0.0; l.biases.len()]))
                .collect(),
        }
    }
}

/// The batch-gradient sweep for squared error over `set`'s rows `rows`,
/// `L` rows (lanes) at a time ([`TILE`]-row tiles; one lane would be the
/// scalar pass). The tile goes forward through [`Layer::forward_tile`]
/// with every layer's activations kept; the output deltas `(y − t)·f′(y)`
/// and hidden deltas `(Σₒ d·w from 0)·f′(y)` are computed across the lanes
/// in the per-example order; then for each weight, a chain adds the
/// tile's products row after row — so every gradient accumulates in
/// example order, and the squared error in example, then output, order, as
/// one example at a time would. Lanes past the range are computed and
/// never added. `set.grads` receives the sums, `error` the squared error.
#[inline(always)]
fn gradient_tiles<const L: usize>(
    layers: &[Layer],
    set: &mut TrainingTiles,
    rows: Range<usize>,
    error: &mut f64,
) {
    let (stride, tile_len, last) = (set.stride, set.tile_len, layers.len() - 1);
    set.sums.iter_mut().for_each(|s| s.fill(0.0));
    for r0 in rows.clone().step_by(L) {
        let valid = L.min(rows.end - r0);
        for (n, layer) in layers.iter().enumerate() {
            let (done, rest) = set.acts.split_at_mut(n * tile_len);
            let (src, src_stride) = match n {
                0 => (&set.inputs[r0..], stride),
                _ => (&done[(n - 1) * tile_len..], L),
            };
            layer.forward_tile::<L>(src, src_stride, rest);
        }
        let out = &layers[last];
        let y = &set.acts[last * tile_len..][..out.outputs * L];
        for o in 0..out.outputs {
            let t = &set.targets[o * stride + r0..][..L];
            for ((d, &y), &t) in set.delta[o * L..][..L].iter_mut().zip(&y[o * L..]).zip(t) {
                *d = (y - t) * out.activation.derivative_from_output(y);
            }
        }
        for r in 0..valid {
            for o in 0..out.outputs {
                let e = y[o * L + r] - set.targets[o * stride + r0 + r];
                *error += e * e;
            }
        }
        for (l, layer) in layers.iter().enumerate().rev() {
            let (n_in, n_out) = (layer.inputs, layer.outputs);
            let width = n_out.next_multiple_of(CHUNK);
            let (prev, prev_stride) = match l {
                0 => (&set.inputs[r0..], stride),
                _ => (&set.acts[(l - 1) * tile_len..], L),
            };
            for r in 0..valid {
                for (o, d) in set.by_row[r * width..][..width].iter_mut().enumerate() {
                    *d = if o < n_out { set.delta[o * L + r] } else { 0.0 };
                }
            }
            // A register chain per `CHUNK` of a sums row, over the rows:
            // `d · 1` is `d`, so the bias row takes the same loop.
            for (i, sums) in set.sums[l].chunks_exact_mut(width).enumerate() {
                let x = if i < n_in {
                    &prev[i * prev_stride..][..valid]
                } else {
                    &ONES[..valid]
                };
                for (c, g) in sums.as_chunks_mut::<CHUNK>().0.iter_mut().enumerate() {
                    let mut acc = *g;
                    for (d, &x) in set.by_row.chunks_exact(width).zip(x) {
                        for (a, &d) in acc.iter_mut().zip(&d[c * CHUNK..][..CHUNK]) {
                            *a += d * x;
                        }
                    }
                    *g = acc;
                }
            }
            if l > 0 {
                for i in 0..n_in {
                    let mut sum = [0.0; L];
                    for o in 0..n_out {
                        let w = layer.weights[o * n_in + i];
                        for (s, &d) in sum.iter_mut().zip(&set.delta[o * L..][..L]) {
                            *s += d * w;
                        }
                    }
                    set.below[i * L..][..L].copy_from_slice(&sum);
                }
                // Over the finished tile, as `forward_tile` applies its
                // activation, so the loop vectorises.
                let f = layers[l - 1].activation;
                for (d, &y) in set.below[..n_in * L].iter_mut().zip(&prev[..n_in * L]) {
                    *d *= f.derivative_from_output(y);
                }
                std::mem::swap(&mut set.delta, &mut set.below);
            }
        }
    }
    for ((layer, (gw, gb)), sums) in layers.iter().zip(&mut set.grads).zip(&set.sums) {
        let width = layer.outputs.next_multiple_of(CHUNK);
        for (o, (row, b)) in gw.chunks_exact_mut(layer.inputs).zip(gb).enumerate() {
            for (i, g) in row.iter_mut().enumerate() {
                *g = sums[i * width + o];
            }
            *b = sums[layer.inputs * width + o];
        }
    }
}

/// A job for the tile kernels, which [`run_tiles`] runs at the widest
/// vector ISA this CPU has.
pub(crate) enum Tiles<'a> {
    /// [`forward_tiles`]'s `layers, cols, rows, tiled, out`.
    Forward(&'a [Layer], &'a [f64], usize, usize, &'a mut [f64]),
    /// [`gradient_tiles`]'s `layers, set, rows, error`.
    Gradients(
        &'a [Layer],
        &'a mut TrainingTiles,
        Range<usize>,
        &'a mut f64,
    ),
}

impl Tiles<'_> {
    /// `#[inline(always)]`, as are both kernels, so each `#[target_feature]`
    /// wrapper below compiles its own copy of them, `exp` included, at that
    /// wrapper's width.
    #[inline(always)]
    fn run(self) {
        match self {
            Tiles::Forward(layers, cols, rows, tiled, out) => {
                forward_tiles(layers, cols, rows, tiled, out)
            }
            Tiles::Gradients(layers, set, rows, error) => {
                gradient_tiles::<TILE>(layers, set, rows, error)
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn tiles_avx512(job: Tiles) {
    job.run();
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tiles_avx2(job: Tiles) {
    job.run();
}

/// Runs `job` at the widest vector ISA this CPU has: the crate's one
/// `unsafe` site.
#[allow(unsafe_code)]
fn run_tiles(job: Tiles) {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU was just found to have AVX-512F, all that
            // calling a function compiled with it enabled requires.
            return unsafe { tiles_avx512(job) };
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: as above, for AVX2.
            return unsafe { tiles_avx2(job) };
        }
    }
    job.run();
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
        let mut rng = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
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
            run_tiles(Tiles::Forward(&self.layers, cols, rows, tiled, out));
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

    /// Sweeps rows `rows` of `set` through the gradient kernel at the
    /// widest vector ISA this CPU has: `set.grads` receives their `dE/dw`
    /// and `dE/db` for squared error, and their summed squared error is
    /// returned.
    pub(crate) fn gradients(&self, set: &mut TrainingTiles, rows: Range<usize>) -> f64 {
        let mut error = 0.0;
        run_tiles(Tiles::Gradients(&self.layers, set, rows, &mut error));
        error
    }

    /// Mean squared error over a dataset (FANN's stopping criterion).
    pub fn mse(&self, inputs: &[Vec<f64>], targets: &[Vec<f64>]) -> f64 {
        assert_eq!(inputs.len(), targets.len());
        if inputs.is_empty() {
            return 0.0;
        }
        let mut scratch = BatchScratch::new();
        let mut total = 0.0;
        let mut count = 0usize;
        for (input, target) in inputs.iter().zip(targets) {
            for (o, t) in self.run_scratch(input, &mut scratch).iter().zip(target) {
                total += (o - t) * (o - t);
                count += 1;
            }
        }
        total / count as f64
    }
}

impl_json_struct!(NeuralNetwork { layers });

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The SplitMix64 state `NeuralNetwork::new` and `fold_assignment`
    /// start a seed's stream from, for test inputs drawn the same way.
    pub(crate) fn stream(seed: u64) -> u64 {
        seed.wrapping_add(0x9e37_79b9_7f4a_7c15)
    }

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

    type TileKernel = fn(Tiles);

    /// Every instantiation of the tile kernels this host can run, called
    /// directly rather than through `run_tiles`.
    #[allow(unsafe_code)]
    pub(crate) fn tiers() -> Vec<(&'static str, TileKernel)> {
        let mut tiers: Vec<(&'static str, TileKernel)> = vec![("baseline", |job| job.run())];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 was just detected.
                tiers.push(("avx2", |job| unsafe { tiles_avx2(job) }));
            }
            if is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F was just detected.
                tiers.push(("avx512f", |job| unsafe { tiles_avx512(job) }));
            }
        }
        tiers
    }

    /// Asserts bit-equality with per-row `run` over `rows` random queries:
    /// of every tier's kernel on the full tiles (when the network fits the
    /// tile buffers), and of `run_batch_cols_into` on every row.
    fn assert_batch_matches_run(net: &NeuralNetwork, rows: usize, rng: &mut u64, what: &str) {
        let (in_dim, out_dim) = (net.input_size(), net.output_size());
        let cols: Vec<f64> = (0..rows * in_dim).map(|_| uniform(rng, 3.0)).collect();
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
                kernel(Tiles::Forward(&net.layers, &cols, rows, tiled, &mut out));
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
        let mut rng = stream(0xBA7C4);
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
        let mut rng = stream(7);
        let net = NeuralNetwork::new(&[5, TILE_WIDTH + 1, 3], Activation::fann_default(), 11);
        for rows in [32, 97] {
            assert_batch_matches_run(&net, rows, &mut rng, "wide");
        }
        let widest = NeuralNetwork::new(&[5, TILE_WIDTH, 3], Activation::fann_default(), 11);
        assert_batch_matches_run(&widest, 64, &mut rng, "exactly the tile width");
    }
}
