//! Deterministic fuzz/property harness for the `proto::wire` codec.
//!
//! Four properties, each driven by a seeded [`DetRng`] so a CI failure is
//! reproducible from its seed alone:
//!
//! 1. **Decode totality** — `WireMsg::decode` over arbitrary bytes never
//!    panics; it returns `Some` or `None`.
//! 2. **Round-trip** — any message the generator can produce satisfies
//!    `decode(encode(m)) == m`, and anything arbitrary bytes happen to
//!    decode re-encodes to a value-equal message.
//! 3. **Truncation** — every strict prefix of a valid encoding is
//!    rejected (the codec demands full-frame consumption, so no prefix
//!    can masquerade as a complete message).
//! 4. **Corruption** — byte-flipped encodings never panic the decoder,
//!    and when they still parse, the parse itself round-trips.
//!
//! The same four properties also cover the wire-version-4 datagram
//! framing of the real-UDP path. The [`FrameHeader`] carries the
//! destination list (one endpoint demux key per reader the frame
//! addresses): header+body frames must round-trip for any list length,
//! every strict prefix of the header (which would truncate the list) must
//! be rejected, corrupted version and count bytes must fail closed, and
//! byte-flipped lists must decode totally. A datagram packs several frames
//! behind frame breaks, and [`Frames`] walks them: a packed datagram must
//! walk back to exactly the frames and entries it was built from, a strict
//! prefix to whole earlier entries and then one failure (none when the cut
//! leaves a whole datagram), and a byte-flipped one to *something* — no
//! panic, in no more steps than it has bytes.
//!
//! Violating inputs are captured as hex strings in the [`FuzzReport`] so
//! CI can pin them as regression tests (see
//! `proto::wire::tests::regression_tiny_frames_claiming_many_elements_are_rejected`
//! for previously-pinned crashers).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use adamant_json::{Json, ToJson};
use adamant_proto::wire::{
    DataMsg, DiscoveryMsg, DurableHeartbeatMsg, DurableNakMsg, EndpointAd, FinMsg, HeartbeatMsg,
    MembershipMsg, NakMsg, RepairMsg, ShmCreditMsg, StreamAckMsg, StreamSynAckMsg, StreamSynMsg,
};
use adamant_proto::{
    DetRng, FrameDest, FrameError, FrameHeader, FramePart, Frames, NodeId, TimePoint, WireMsg,
};

/// Which property an input violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzFailureKind {
    /// `decode` panicked on the input.
    DecodePanicked,
    /// `decode(encode(m))` did not reproduce `m`.
    RoundTripMismatch,
    /// A strict prefix of a valid encoding decoded to `Some`, or walked to
    /// anything but whole earlier entries and one failure.
    PrefixAccepted,
    /// A datagram walk took more steps than its input has bytes.
    WorkUnbounded,
}

impl std::fmt::Display for FuzzFailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FuzzFailureKind::DecodePanicked => write!(f, "decode-panicked"),
            FuzzFailureKind::RoundTripMismatch => write!(f, "round-trip-mismatch"),
            FuzzFailureKind::PrefixAccepted => write!(f, "prefix-accepted"),
            FuzzFailureKind::WorkUnbounded => write!(f, "work-unbounded"),
        }
    }
}

/// One input that violated a property, with enough context to pin it as a
/// regression test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzFailure {
    /// The violated property.
    pub kind: FuzzFailureKind,
    /// The offending input, hex-encoded.
    pub input_hex: String,
    /// Which iteration produced it.
    pub iteration: u64,
}

impl ToJson for FuzzFailure {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kind".to_owned(), Json::Str(self.kind.to_string())),
            ("input_hex".to_owned(), Json::Str(self.input_hex.clone())),
            ("iteration".to_owned(), Json::Num(self.iteration as f64)),
        ])
    }
}

/// The outcome of a fuzz run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuzzReport {
    /// Iterations executed.
    pub iterations: u64,
    /// Random-byte inputs that decoded successfully (coverage signal).
    pub random_decoded: u64,
    /// Generated-message encodings exercised.
    pub messages: u64,
    /// Strict prefixes checked.
    pub prefixes: u64,
    /// Byte-flip mutants checked.
    pub mutants: u64,
    /// Mutants that still decoded (coverage signal).
    pub mutants_decoded: u64,
    /// Header+body datagram frames round-tripped (wire version 4).
    pub frames: u64,
    /// Destinations those frames' headers listed, summed (coverage signal:
    /// well above `frames` when multi-destination lists are exercised).
    pub frame_dests: u64,
    /// Strict prefixes of framed datagrams checked against the header
    /// decoder (a truncated destination list must be rejected).
    pub frame_prefixes: u64,
    /// Frames packed into the datagrams walked back through [`Frames`],
    /// summed (coverage signal: above `frames` when packing is exercised).
    pub packed_frames: u64,
    /// Strict prefixes of packed datagrams walked.
    pub packed_prefixes: u64,
    /// Byte-flipped packed datagrams that still walked to the end without
    /// a failure (coverage signal).
    pub packed_mutants_clean: u64,
    /// Property violations, at most one recorded per iteration.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// Whether every property held on every input.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

impl ToJson for FuzzReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("iterations".to_owned(), Json::Num(self.iterations as f64)),
            (
                "random_decoded".to_owned(),
                Json::Num(self.random_decoded as f64),
            ),
            ("messages".to_owned(), Json::Num(self.messages as f64)),
            ("prefixes".to_owned(), Json::Num(self.prefixes as f64)),
            ("mutants".to_owned(), Json::Num(self.mutants as f64)),
            (
                "mutants_decoded".to_owned(),
                Json::Num(self.mutants_decoded as f64),
            ),
            ("frames".to_owned(), Json::Num(self.frames as f64)),
            ("frame_dests".to_owned(), Json::Num(self.frame_dests as f64)),
            (
                "frame_prefixes".to_owned(),
                Json::Num(self.frame_prefixes as f64),
            ),
            (
                "packed_frames".to_owned(),
                Json::Num(self.packed_frames as f64),
            ),
            (
                "packed_prefixes".to_owned(),
                Json::Num(self.packed_prefixes as f64),
            ),
            (
                "packed_mutants_clean".to_owned(),
                Json::Num(self.packed_mutants_clean as f64),
            ),
            ("failures".to_owned(), self.failures.to_json()),
        ])
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn small_vec(rng: &mut DetRng) -> Vec<u64> {
    let len = rng.next_below(8);
    (0..len).map(|_| rng.next_u64()).collect()
}

/// Generates a random valid message, covering every variant.
pub fn arbitrary_msg(rng: &mut DetRng) -> WireMsg {
    let data = |rng: &mut DetRng| DataMsg {
        seq: rng.next_u64(),
        published_at: TimePoint::from_nanos(rng.next_u64()),
        retransmission: rng.next_below(2) == 1,
    };
    match rng.next_below(13) {
        0 => WireMsg::Data(data(rng)),
        1 => WireMsg::Nak(NakMsg {
            seqs: small_vec(rng),
        }),
        2 => WireMsg::Repair(RepairMsg {
            entries: (0..rng.next_below(8))
                .map(|_| (rng.next_u64(), TimePoint::from_nanos(rng.next_u64())))
                .collect(),
        }),
        3 => WireMsg::Heartbeat(HeartbeatMsg {
            highest_seq: if rng.next_below(2) == 1 {
                Some(rng.next_u64())
            } else {
                None
            },
        }),
        4 => WireMsg::Fin(FinMsg {
            total: rng.next_u64(),
        }),
        5 => WireMsg::Membership(MembershipMsg {
            epoch: rng.next_u64(),
        }),
        6 => WireMsg::Discovery(Arc::new(DiscoveryMsg {
            participant_id: rng.next_u64() as u32,
            epoch: rng.next_u64() as u32,
            endpoints: (0..rng.next_below(4))
                .map(|_| EndpointAd {
                    topic: (0..rng.next_below(12))
                        .map(|_| char::from(b'a' + rng.next_below(26) as u8))
                        .collect(),
                    is_writer: rng.next_below(2) == 1,
                    qos_code: rng.next_u64(),
                })
                .collect(),
        })),
        7 => WireMsg::DurableHeartbeat(DurableHeartbeatMsg {
            first_seq: rng.next_u64(),
            last_seq: rng.next_u64(),
        }),
        8 => WireMsg::DurableNak(DurableNakMsg {
            seqs: small_vec(rng),
        }),
        9 => WireMsg::StreamSyn(StreamSynMsg {
            window: rng.next_u64() as u32,
        }),
        10 => WireMsg::StreamSynAck(StreamSynAckMsg {
            window: rng.next_u64() as u32,
        }),
        11 => WireMsg::StreamAck(StreamAckMsg {
            cum_ack: rng.next_u64(),
            window: rng.next_u64() as u32,
        }),
        _ => WireMsg::ShmCredit(ShmCreditMsg {
            upto: rng.next_u64(),
        }),
    }
}

/// Decodes inside `catch_unwind` so a decoder panic is reported as a
/// [`FuzzFailureKind::DecodePanicked`] failure with the input pinned,
/// instead of aborting the whole run.
fn checked_decode(bytes: &[u8]) -> Result<Option<WireMsg>, ()> {
    catch_unwind(AssertUnwindSafe(|| WireMsg::decode(bytes))).map_err(drop)
}

/// Checks decode totality plus opportunistic round-trip on `bytes`,
/// recording at most one failure.
fn check_bytes(bytes: &[u8], iteration: u64, failures: &mut Vec<FuzzFailure>) -> bool {
    let fail = |kind| FuzzFailure {
        kind,
        input_hex: hex(bytes),
        iteration,
    };
    match checked_decode(bytes) {
        Err(()) => {
            failures.push(fail(FuzzFailureKind::DecodePanicked));
            false
        }
        Ok(None) => false,
        Ok(Some(msg)) => {
            // Whatever parsed must re-encode to a value-equal parse.
            if WireMsg::decode(&msg.to_bytes()).as_ref() != Some(&msg) {
                failures.push(fail(FuzzFailureKind::RoundTripMismatch));
            }
            true
        }
    }
}

/// Runs `iterations` of all four wire properties under `seed`.
pub fn fuzz_wire(seed: u64, iterations: u64) -> FuzzReport {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut report = FuzzReport::default();
    for iteration in 0..iterations {
        report.iterations += 1;

        // Property 1 + 2 (arbitrary bytes): random frames, with a bias
        // toward valid-looking kind bytes so the per-variant parsers are
        // actually reached.
        let len = rng.next_below(64) as usize;
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        if !bytes.is_empty() && rng.next_below(2) == 1 {
            bytes[0] = rng.next_below(18) as u8; // kinds are 1..=15 but 6 and 8; overshoot a little
        }
        if check_bytes(&bytes, iteration, &mut report.failures) {
            report.random_decoded += 1;
        }

        // Property 2 (generated messages): exact round-trip.
        let msg = arbitrary_msg(&mut rng);
        let encoded = msg.to_bytes();
        report.messages += 1;
        match checked_decode(&encoded) {
            Ok(Some(back)) if back == msg => {}
            Ok(_) => report.failures.push(FuzzFailure {
                kind: FuzzFailureKind::RoundTripMismatch,
                input_hex: hex(&encoded),
                iteration,
            }),
            Err(()) => report.failures.push(FuzzFailure {
                kind: FuzzFailureKind::DecodePanicked,
                input_hex: hex(&encoded),
                iteration,
            }),
        }

        // Property 3: every strict prefix of the valid encoding must be
        // rejected — the codec requires whole-frame consumption.
        for cut in 0..encoded.len() {
            report.prefixes += 1;
            match checked_decode(&encoded[..cut]) {
                Ok(None) => {}
                Ok(Some(_)) => report.failures.push(FuzzFailure {
                    kind: FuzzFailureKind::PrefixAccepted,
                    input_hex: hex(&encoded[..cut]),
                    iteration,
                }),
                Err(()) => report.failures.push(FuzzFailure {
                    kind: FuzzFailureKind::DecodePanicked,
                    input_hex: hex(&encoded[..cut]),
                    iteration,
                }),
            }
        }

        // Property 4: flip 1-4 bytes of the valid encoding.
        if !encoded.is_empty() {
            let mut mutant = encoded.clone();
            for _ in 0..1 + rng.next_below(4) {
                let pos = rng.next_below(mutant.len() as u64) as usize;
                mutant[pos] ^= 1 << rng.next_below(8);
            }
            report.mutants += 1;
            if check_bytes(&mutant, iteration, &mut report.failures) {
                report.mutants_decoded += 1;
            }
        }

        // Wire version 4 framing: the same properties over a full
        // header+body datagram, exercising the destination list. Driven
        // by a per-iteration derived rng so the main property stream
        // keeps its historical coverage profile.
        let mut frame_rng =
            DetRng::seed_from_u64(seed ^ iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        check_frame(&mut frame_rng, &encoded, iteration, &mut report);
    }
    report
}

/// Frame-header properties (wire version 4): a header+body datagram must
/// round-trip through [`FrameHeader::decode`] + [`WireMsg::decode`] for any
/// destination-list length, every strict prefix of the header must be
/// rejected (a truncated list must never route), a corrupted version byte
/// or a zeroed count must fail closed, and a byte-flipped header must
/// decode totally — to `None` or to a list that fits the datagram. Then
/// the same header opens a packed datagram for [`check_packed`].
fn check_frame(rng: &mut DetRng, body: &[u8], iteration: u64, report: &mut FuzzReport) {
    let src = NodeId(rng.next_u64() as u32);
    // Mostly short lists (what unicast and small groups send), with the
    // full range up to the u8 count's limit mixed in.
    let count = match rng.next_below(4) {
        0 => 1,
        1 => 1 + rng.next_below(8) as usize,
        2 => 1 + rng.next_below(FrameHeader::MAX_DESTS as u64) as usize,
        _ => FrameHeader::MAX_DESTS,
    };
    let dests: Vec<FrameDest> = (0..count)
        .map(|_| FrameDest {
            endpoint: rng.next_u64() as u32,
            incarnation: rng.next_u64() as u32,
        })
        .collect();
    let header_len = FrameHeader::len_for(count);
    let mut frame = Vec::with_capacity(header_len + body.len());
    FrameHeader::encode_list(src, &dests, &mut frame);
    frame.extend_from_slice(body);
    report.frames += 1;
    report.frame_dests += count as u64;

    let fail = |kind, bytes: &[u8]| FuzzFailure {
        kind,
        input_hex: hex(bytes),
        iteration,
    };
    let decode = |bytes: &[u8]| {
        catch_unwind(AssertUnwindSafe(|| {
            FrameHeader::decode(bytes)
                .map(|(header, rest)| (header.src, header.iter().collect::<Vec<_>>(), rest.len()))
        }))
    };
    match decode(&frame) {
        Err(_) => report
            .failures
            .push(fail(FuzzFailureKind::DecodePanicked, &frame)),
        Ok(back) => {
            if back != Some((src, dests.clone(), body.len())) {
                report
                    .failures
                    .push(fail(FuzzFailureKind::RoundTripMismatch, &frame));
            }
        }
    }

    // Strict prefixes of the header: the destination list must be
    // complete before any routing decision — no prefix may parse.
    for cut in 0..header_len {
        report.frame_prefixes += 1;
        match decode(&frame[..cut]) {
            Ok(None) => {}
            Ok(Some(_)) => report
                .failures
                .push(fail(FuzzFailureKind::PrefixAccepted, &frame[..cut])),
            Err(_) => report
                .failures
                .push(fail(FuzzFailureKind::DecodePanicked, &frame[..cut])),
        }
    }

    // A flipped version byte, or a count of zero, must be rejected, never
    // misparsed.
    let mut wrong_version = frame.clone();
    wrong_version[0] ^= 1 << rng.next_below(8);
    let mut no_dests = frame.clone();
    no_dests[FrameHeader::len_for(0) - 1] = 0;
    for closed in [wrong_version, no_dests] {
        match decode(&closed) {
            Ok(None) => {}
            Ok(Some(_)) => report
                .failures
                .push(fail(FuzzFailureKind::RoundTripMismatch, &closed)),
            Err(_) => report
                .failures
                .push(fail(FuzzFailureKind::DecodePanicked, &closed)),
        }
    }

    // Byte flips anywhere in the header (the count byte included): the
    // decoder must stay total, and whatever it accepts must account for
    // exactly the bytes it was given.
    let mut mutant = frame.clone();
    for _ in 0..1 + rng.next_below(4) {
        let pos = rng.next_below(header_len as u64) as usize;
        mutant[pos] ^= 1 << rng.next_below(8);
    }
    match decode(&mutant) {
        Err(_) => report
            .failures
            .push(fail(FuzzFailureKind::DecodePanicked, &mutant)),
        Ok(None) => {}
        Ok(Some((_, listed, rest))) => {
            if FrameHeader::len_for(listed.len()) + rest != mutant.len() {
                report
                    .failures
                    .push(fail(FuzzFailureKind::RoundTripMismatch, &mutant));
            }
        }
    }

    check_packed(rng, src, dests, body, iteration, report);
}

/// One step of a [`Frames`] walk, owned.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Step {
    Header(NodeId, Vec<FrameDest>),
    Entry(Vec<u8>),
    Failed(FrameError),
}

/// Walks `bytes` inside `catch_unwind`, giving up — as a
/// [`FuzzFailureKind::WorkUnbounded`] failure — on the first step beyond
/// one per input byte (every step but a last failure consumes at least one).
fn checked_walk(bytes: &[u8]) -> Result<Vec<Step>, FuzzFailureKind> {
    let steps = catch_unwind(AssertUnwindSafe(|| {
        Frames::new(bytes)
            .take(bytes.len() + 2)
            .map(|part| match part {
                Ok(FramePart::Header(header)) => Step::Header(header.src, header.iter().collect()),
                Ok(FramePart::Entry(entry)) => Step::Entry(entry.to_vec()),
                Err(e) => Step::Failed(e),
            })
            .collect::<Vec<_>>()
    }))
    .map_err(|_| FuzzFailureKind::DecodePanicked)?;
    if steps.len() > bytes.len() + 1 {
        return Err(FuzzFailureKind::WorkUnbounded);
    }
    Ok(steps)
}

/// Packed-datagram properties (wire version 4): a frame from `src` to
/// `dests` opens a datagram of 1–4 frames (the later ones to short lists)
/// of 1–3 entries of `msg` each. It must walk back to exactly what went
/// in; a strict prefix to whole earlier entries and then exactly one
/// failure, or none when the cut leaves a whole datagram; byte flips to no
/// panic and bounded work.
fn check_packed(
    rng: &mut DetRng,
    mut src: NodeId,
    mut dests: Vec<FrameDest>,
    msg: &[u8],
    iteration: u64,
    report: &mut FuzzReport,
) {
    let first_header = FrameHeader::len_for(dests.len());
    let (mut datagram, mut want) = (Vec::new(), Vec::new());
    // Cuts that leave a whole, shorter datagram: after any entry.
    let mut whole_at = Vec::new();
    let frames = 1 + rng.next_below(4);
    for i in 0..frames {
        if i > 0 {
            FrameHeader::encode_break(&mut datagram);
            src = NodeId(rng.next_u64() as u32);
            dests = (0..1 + rng.next_below(4))
                .map(|_| FrameDest {
                    endpoint: rng.next_u64() as u32,
                    incarnation: rng.next_u64() as u32,
                })
                .collect();
        }
        FrameHeader::encode_list(src, &dests, &mut datagram);
        want.push(Step::Header(src, dests.clone()));
        for _ in 0..1 + rng.next_below(3) {
            FrameHeader::encode_body_entry(&mut datagram, msg);
            want.push(Step::Entry(msg.to_vec()));
            whole_at.push(datagram.len());
        }
    }
    report.packed_frames += frames;

    let mut fail = |kind, bytes: &[u8]| {
        report.failures.push(FuzzFailure {
            kind,
            input_hex: hex(bytes),
            iteration,
        });
    };
    match checked_walk(&datagram) {
        Ok(steps) if steps == want => {}
        Ok(_) => fail(FuzzFailureKind::RoundTripMismatch, &datagram),
        Err(kind) => fail(kind, &datagram),
    }

    // Strict prefixes, a fixed number per datagram (a walk is linear, so
    // every cut would make the check quadratic): most behind the first
    // header, where the frame structure is.
    for i in 0..16 {
        let from = if i < 12 { first_header - 1 } else { 0 };
        let cut = from + rng.next_below((datagram.len() - from) as u64) as usize;
        report.packed_prefixes += 1;
        let prefix = &datagram[..cut];
        match checked_walk(prefix) {
            Err(kind) => fail(kind, prefix),
            Ok(mut steps) => {
                let failed = matches!(steps.last(), Some(Step::Failed(_)));
                steps.truncate(steps.len() - usize::from(failed));
                if !want.starts_with(&steps) || failed == whole_at.contains(&cut) {
                    fail(FuzzFailureKind::PrefixAccepted, prefix);
                }
            }
        }
    }

    // Byte flips, in the packed part (lengths, breaks, later headers) and
    // anywhere: the walk stays total and its work bounded by the input.
    for from in [first_header - 1, 0] {
        let mut mutant = datagram.clone();
        for _ in 0..1 + rng.next_below(4) {
            let pos = from + rng.next_below((mutant.len() - from) as u64) as usize;
            mutant[pos] ^= 1 << rng.next_below(8);
        }
        match checked_walk(&mutant) {
            Err(kind) => fail(kind, &mutant),
            Ok(steps) => {
                let clean = !steps.iter().any(|step| matches!(step, Step::Failed(_)));
                report.packed_mutants_clean += u64::from(clean);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_run_is_clean_and_reproducible() {
        let a = fuzz_wire(42, 300);
        assert!(a.is_clean(), "wire fuzz failures: {:?}", a.failures);
        assert!(a.random_decoded > 0, "bias never produced a valid frame");
        assert!(a.mutants_decoded > 0, "no mutant survived decoding");
        assert_eq!(a.frames, a.iterations, "every iteration frames a datagram");
        assert!(a.frame_prefixes > 0, "header prefixes never checked");
        assert!(
            a.frame_dests > 8 * a.frames,
            "multi-destination lists never exercised"
        );
        assert!(a.packed_frames > 2 * a.frames, "packing never exercised");
        assert_eq!(a.packed_prefixes, 16 * a.frames);
        assert!(
            0 < a.packed_mutants_clean && a.packed_mutants_clean < 2 * a.frames,
            "byte flips never (or always) damaged the framing"
        );
        let b = fuzz_wire(42, 300);
        assert_eq!(a, b, "same seed must reproduce the same report");
    }

    #[test]
    fn generator_covers_every_variant() {
        let mut rng = DetRng::seed_from_u64(7);
        let mut seen = [false; 13];
        for _ in 0..512 {
            let idx = match arbitrary_msg(&mut rng) {
                WireMsg::Data(_) => 0,
                WireMsg::Nak(_) => 1,
                WireMsg::Repair(_) => 2,
                WireMsg::Heartbeat(_) => 3,
                WireMsg::Fin(_) => 4,
                WireMsg::Membership(_) => 5,
                WireMsg::Discovery(_) => 6,
                WireMsg::DurableHeartbeat(_) => 7,
                WireMsg::DurableNak(_) => 8,
                WireMsg::StreamSyn(_) => 9,
                WireMsg::StreamSynAck(_) => 10,
                WireMsg::StreamAck(_) => 11,
                WireMsg::ShmCredit(_) => 12,
            };
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&s| s), "variant never generated: {seen:?}");
    }

    #[test]
    fn failures_render_as_json() {
        let failure = FuzzFailure {
            kind: FuzzFailureKind::DecodePanicked,
            input_hex: "deadbeef".to_owned(),
            iteration: 3,
        };
        let rendered = adamant_json::to_string(&failure);
        assert!(rendered.contains("decode-panicked"));
        assert!(rendered.contains("deadbeef"));
    }
}
