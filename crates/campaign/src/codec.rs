//! The versioned binary codec for persisted verification state.
//!
//! Everything the campaign service writes to disk — suspended
//! [`RunCheckpoint`]s (wrapped in a fingerprinted [`CheckpointFile`]
//! envelope) and the journal's completed [`PropertyRecord`]s —
//! round-trips through this module.
//! The format is length-prefixed varint lists over [`crate::wire`]
//! primitives: checkpoint payloads are dominated by BDD node triples
//! whose slot references are small by construction (children precede
//! parents in the transfer layer's level order), so varints shrink the
//! common node to a few bytes.
//!
//! Decoding is total: every failure mode — truncation, a flipped byte,
//! a stale format version, a checkpoint taken from a different AIG or
//! under different [`CheckOptions`](veridic_mc::CheckOptions) — is a
//! typed [`CodecError`], never a panic and never a silently wrong
//! resume. Topological validity of imported BDDs is enforced by
//! [`ExportedBdd::from_raw_parts`] rather than re-implemented here.
//!
//! Checkpoints and records carry their own format version
//! ([`CHECKPOINT_VERSION`], [`RECORD_VERSION`]): a checkpoint is scratch
//! state, and a stale one only costs its job a fresh run, while a
//! journal record is a finished result, so a change to the checkpoint
//! layout must not make the journals unreadable.

use std::fmt;
use std::sync::Mutex;
use std::time::Duration;

use veridic_bdd::{ExportedBdd, TransferFormatError};
use veridic_chipgen::{Category, PropertyType};
use veridic_core::flow::PropertyRecord;
use veridic_mc::{
    BadCoiStats, CheckStats, EngineCheckpoint, EngineEvent, EngineId, EventOutcome, EventResources,
    PreanalysisStats, ReachCheckpoint, RunCheckpoint, Trace, Verdict,
};

use crate::wire::{self, fnv1a, put_string, put_varint, Reader, WireError};

/// Magic prefix of a [`CheckpointFile`].
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"VCKP";
/// Magic prefix of an encoded [`PropertyRecord`] (journal `done` lines).
pub const RECORD_MAGIC: [u8; 4] = *b"VREC";
/// Format version of a [`CheckpointFile`]; bump on any change to its
/// layout. Version 3 stores a reachability state as one multi-root BDD
/// export and carries the depth BMC cleared.
pub const CHECKPOINT_VERSION: u8 = 3;
/// Format version of an encoded [`PropertyRecord`]; bump on any change
/// to its layout.
pub const RECORD_VERSION: u8 = 2;

/// A malformed or mismatched persisted artifact.
///
/// The crash-recovery contract hinges on these being *typed*: a daemon
/// restarting over a damaged checkpoint must degrade to "re-run the
/// property from scratch", and the operator must be able to tell a
/// torn write ([`CodecError::Checksum`]) from a campaign directory
/// reused with a different chip ([`CodecError::AigFingerprint`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The file does not start with the expected magic bytes.
    BadMagic,
    /// The file's format version is not the one this build writes for
    /// its kind ([`CHECKPOINT_VERSION`] or [`RECORD_VERSION`]).
    UnsupportedVersion(u8),
    /// The trailing FNV-1a checksum does not match the content.
    Checksum {
        /// Checksum recomputed over the content.
        expected: u64,
        /// Checksum stored in the file.
        found: u64,
    },
    /// The checkpoint was taken on a different AIG.
    AigFingerprint {
        /// Fingerprint of the AIG the resume is for.
        expected: u64,
        /// Fingerprint stored in the file.
        found: u64,
    },
    /// The checkpoint was taken under different check options.
    OptionsFingerprint {
        /// Fingerprint of the options the resume is for.
        expected: u64,
        /// Fingerprint stored in the file.
        found: u64,
    },
    /// An enum tag byte has no meaning in this version.
    BadTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A structural wire-level failure (truncation, overflow, UTF-8…).
    Wire(WireError),
    /// A decoded BDD failed the transfer layer's topology validation.
    Format(TransferFormatError),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a campaign artifact (bad magic)"),
            CodecError::UnsupportedVersion(v) => write!(
                f,
                "format version {v} not supported (this build reads checkpoints at \
                 {CHECKPOINT_VERSION}, records at {RECORD_VERSION})"
            ),
            CodecError::Checksum { expected, found } => {
                write!(f, "checksum mismatch: content hashes to {expected:#018x}, file says {found:#018x}")
            }
            CodecError::AigFingerprint { expected, found } => {
                write!(f, "checkpoint is for a different AIG (expected {expected:#018x}, found {found:#018x})")
            }
            CodecError::OptionsFingerprint { expected, found } => {
                write!(f, "checkpoint was taken under different options (expected {expected:#018x}, found {found:#018x})")
            }
            CodecError::BadTag { what, tag } => write!(f, "{what}: unknown tag {tag}"),
            CodecError::Wire(e) => write!(f, "wire error: {e}"),
            CodecError::Format(e) => write!(f, "invalid BDD payload: {e}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Wire(e) => Some(e),
            CodecError::Format(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for CodecError {
    fn from(e: WireError) -> Self {
        CodecError::Wire(e)
    }
}

impl From<TransferFormatError> for CodecError {
    fn from(e: TransferFormatError) -> Self {
        CodecError::Format(e)
    }
}

/// Interns a decoded engine name into a `'static` string.
///
/// [`EngineId::Custom`] and [`Verdict::Proved`] carry `&'static str` —
/// fine for names born in source text, but a deserializer reads them
/// from bytes. The known portfolio names map to their existing
/// statics; anything else is leaked **once** and reused via a registry,
/// so decoding a million records with a custom engine leaks one string,
/// not a million.
fn intern_engine_name(name: &str) -> &'static str {
    const KNOWN: [&str; 6] = [
        "bmc",
        "induction",
        "bmc-induction",
        "bdd-umc",
        "pobdd-umc",
        "portfolio",
    ];
    for k in KNOWN {
        if k == name {
            return k;
        }
    }
    if name == veridic_mc::PREANALYSIS {
        return veridic_mc::PREANALYSIS;
    }
    static LEAKED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut leaked = LEAKED.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(s) = leaked.iter().find(|s| **s == name) {
        return s;
    }
    let s: &'static str = Box::leak(name.to_owned().into_boxed_str());
    leaked.push(s);
    s
}

// ---------------------------------------------------------------------
// BDD transfer payloads
// ---------------------------------------------------------------------

fn put_exported(out: &mut Vec<u8>, bdd: &ExportedBdd) {
    let order = bdd.source_order();
    put_varint(out, order.len() as u64);
    for v in order {
        put_varint(out, u64::from(*v));
    }
    // node_count() includes the shared terminal; the wire carries only
    // the decision-node triples raw_nodes() yields.
    let nodes: Vec<(u32, u32, u32)> = bdd.raw_nodes().collect();
    put_varint(out, nodes.len() as u64);
    for (var, lo, hi) in nodes {
        put_varint(out, u64::from(var));
        put_varint(out, u64::from(lo));
        put_varint(out, u64::from(hi));
    }
    let roots = bdd.raw_roots();
    put_varint(out, roots.len() as u64);
    for root in roots {
        put_varint(out, u64::from(root));
    }
}

fn get_exported(r: &mut Reader<'_>) -> Result<ExportedBdd, CodecError> {
    let order_len = r.length("bdd order", 1)?;
    let mut order = Vec::with_capacity(order_len);
    for _ in 0..order_len {
        order.push(r.varint_u32("order var")?);
    }
    let node_len = r.length("bdd nodes", 3)?;
    let mut nodes = Vec::with_capacity(node_len);
    for _ in 0..node_len {
        let var = r.varint_u32("node var")?;
        let lo = r.varint_u32("node lo")?;
        let hi = r.varint_u32("node hi")?;
        nodes.push((var, lo, hi));
    }
    let root_len = r.length("bdd roots", 1)?;
    let mut roots = Vec::with_capacity(root_len);
    for _ in 0..root_len {
        roots.push(r.varint_u32("bdd root")?);
    }
    Ok(ExportedBdd::from_raw_parts(nodes, roots, order)?)
}

// ---------------------------------------------------------------------
// Engine checkpoints
// ---------------------------------------------------------------------

fn put_reach(out: &mut Vec<u8>, reach: &ReachCheckpoint) {
    put_varint(out, reach.depth as u64);
    put_varint(out, u64::from(reach.window_vars));
    put_exported(out, &reach.sets);
}

fn get_reach(r: &mut Reader<'_>) -> Result<ReachCheckpoint, CodecError> {
    Ok(ReachCheckpoint {
        depth: r.varint_usize("reach depth")?,
        window_vars: r.varint_u32("window vars")?,
        sets: get_exported(r)?,
    })
}

fn put_engine_checkpoint(out: &mut Vec<u8>, state: &EngineCheckpoint) {
    match state {
        EngineCheckpoint::Bmc { next_depth } => {
            out.push(0);
            put_varint(out, *next_depth as u64);
        }
        EngineCheckpoint::Induction { next_k } => {
            out.push(1);
            put_varint(out, *next_k as u64);
        }
        EngineCheckpoint::Reach(reach) => {
            out.push(2);
            put_reach(out, reach);
        }
    }
}

fn get_engine_checkpoint(r: &mut Reader<'_>) -> Result<EngineCheckpoint, CodecError> {
    match r.byte()? {
        0 => Ok(EngineCheckpoint::Bmc {
            next_depth: r.varint_usize("bmc depth")?,
        }),
        1 => Ok(EngineCheckpoint::Induction {
            next_k: r.varint_usize("induction k")?,
        }),
        2 => Ok(EngineCheckpoint::Reach(get_reach(r)?)),
        tag => Err(CodecError::BadTag {
            what: "engine checkpoint",
            tag,
        }),
    }
}

// ---------------------------------------------------------------------
// Events and statistics
// ---------------------------------------------------------------------

fn put_engine_id(out: &mut Vec<u8>, id: EngineId) {
    put_string(out, id.as_str());
}

fn get_engine_id(r: &mut Reader<'_>) -> Result<EngineId, CodecError> {
    let name = r.string("engine id")?;
    Ok(EngineId::from_name(&name).unwrap_or(EngineId::Custom(intern_engine_name(&name))))
}

fn put_outcome(out: &mut Vec<u8>, outcome: &EventOutcome) {
    match outcome {
        EventOutcome::Falsified => out.push(0),
        EventOutcome::CleanToDepth(d) => {
            out.push(1);
            put_varint(out, *d as u64);
        }
        EventOutcome::ProvedAtK(k) => {
            out.push(2);
            put_varint(out, *k as u64);
        }
        EventOutcome::Inconclusive => out.push(3),
        EventOutcome::Proved => out.push(4),
        EventOutcome::FalsifiedAtDepth(d) => {
            out.push(5);
            put_varint(out, *d as u64);
        }
        EventOutcome::ResourceOut => out.push(6),
        EventOutcome::Suspended => out.push(7),
    }
}

fn get_outcome(r: &mut Reader<'_>) -> Result<EventOutcome, CodecError> {
    Ok(match r.byte()? {
        0 => EventOutcome::Falsified,
        1 => EventOutcome::CleanToDepth(r.varint_usize("clean depth")?),
        2 => EventOutcome::ProvedAtK(r.varint_usize("proved k")?),
        3 => EventOutcome::Inconclusive,
        4 => EventOutcome::Proved,
        5 => EventOutcome::FalsifiedAtDepth(r.varint_usize("falsified depth")?),
        6 => EventOutcome::ResourceOut,
        7 => EventOutcome::Suspended,
        tag => {
            return Err(CodecError::BadTag {
                what: "event outcome",
                tag,
            })
        }
    })
}

fn put_event(out: &mut Vec<u8>, event: &EngineEvent) {
    put_string(out, &event.bad);
    put_engine_id(out, event.engine);
    put_outcome(out, &event.outcome);
    put_varint(out, event.resources.sat_conflicts);
    put_varint(out, event.resources.bdd_allocated);
    put_varint(out, event.resources.bdd_peak_live as u64);
    put_varint(out, event.resources.rounds);
}

fn get_event(r: &mut Reader<'_>) -> Result<EngineEvent, CodecError> {
    let bad = r.string("event bad")?;
    let engine = get_engine_id(r)?;
    let outcome = get_outcome(r)?;
    let resources = EventResources {
        sat_conflicts: r.varint()?,
        bdd_allocated: r.varint()?,
        bdd_peak_live: r.varint_usize("peak live")?,
        rounds: r.varint()?,
    };
    Ok(EngineEvent {
        bad,
        engine,
        outcome,
        resources,
    })
}

fn put_stats(out: &mut Vec<u8>, stats: &CheckStats) {
    put_varint(out, stats.events.len() as u64);
    for event in &stats.events {
        put_event(out, event);
    }
    put_varint(out, stats.coi_latches as u64);
    put_varint(out, stats.coi_ands as u64);
    put_varint(out, stats.per_bad_coi.len() as u64);
    for coi in &stats.per_bad_coi {
        put_string(out, &coi.bad);
        put_varint(out, coi.latches as u64);
        put_varint(out, coi.ands as u64);
    }
    put_varint(out, stats.preanalysis.bads_analyzed as u64);
    put_varint(out, stats.preanalysis.stuck_latches as u64);
    put_varint(out, stats.preanalysis.folded_ands as u64);
    put_varint(out, stats.preanalysis.vacuous as u64);
    put_varint(out, stats.bdd_nodes as u64);
    put_varint(out, stats.bdd_allocated);
    put_varint(out, stats.bdd_quota_hits as u64);
    put_varint(out, stats.sat_conflicts);
    put_varint(out, stats.iterations as u64);
    put_varint(out, stats.static_order_span_before);
    put_varint(out, stats.static_order_span_after);
}

fn get_stats(r: &mut Reader<'_>) -> Result<CheckStats, CodecError> {
    let n = r.length("events", 4)?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(get_event(r)?);
    }
    let coi_latches = r.varint_usize("coi latches")?;
    let coi_ands = r.varint_usize("coi ands")?;
    let n = r.length("per-bad coi", 3)?;
    let mut per_bad_coi = Vec::with_capacity(n);
    for _ in 0..n {
        per_bad_coi.push(BadCoiStats {
            bad: r.string("coi bad")?,
            latches: r.varint_usize("coi latches")?,
            ands: r.varint_usize("coi ands")?,
        });
    }
    let preanalysis = PreanalysisStats {
        bads_analyzed: r.varint_usize("bads analyzed")?,
        stuck_latches: r.varint_usize("stuck latches")?,
        folded_ands: r.varint_usize("folded ands")?,
        vacuous: r.varint_usize("vacuous")?,
    };
    let bdd_nodes = r.varint_usize("bdd nodes")?;
    let bdd_allocated = r.varint()?;
    let bdd_quota_hits = r.varint_usize("quota hits")?;
    let sat_conflicts = r.varint()?;
    let iterations = r.varint_usize("iterations")?;
    Ok(CheckStats {
        events,
        coi_latches,
        coi_ands,
        per_bad_coi,
        preanalysis,
        bdd_nodes,
        bdd_allocated,
        bdd_quota_hits,
        sat_conflicts,
        iterations,
        static_order_span_before: r.varint()?,
        static_order_span_after: r.varint()?,
    })
}

// ---------------------------------------------------------------------
// Verdicts
// ---------------------------------------------------------------------

fn put_trace(out: &mut Vec<u8>, trace: &Trace) {
    put_varint(out, trace.bad_index as u64);
    put_varint(out, trace.inputs.len() as u64);
    for cycle in &trace.inputs {
        put_varint(out, cycle.len() as u64);
        let mut byte = 0u8;
        for (i, bit) in cycle.iter().enumerate() {
            if *bit {
                byte |= 1 << (i % 8);
            }
            if i % 8 == 7 {
                out.push(byte);
                byte = 0;
            }
        }
        if cycle.len() % 8 != 0 {
            out.push(byte);
        }
    }
}

fn get_trace(r: &mut Reader<'_>) -> Result<Trace, CodecError> {
    let bad_index = r.varint_usize("trace bad")?;
    let cycles = r.length("trace cycles", 1)?;
    let mut inputs = Vec::with_capacity(cycles);
    for _ in 0..cycles {
        let bits = r.varint_usize("cycle width")?;
        let raw = r.bytes(bits.div_ceil(8))?;
        let mut cycle = Vec::with_capacity(bits);
        for i in 0..bits {
            cycle.push(raw[i / 8] & (1 << (i % 8)) != 0);
        }
        inputs.push(cycle);
    }
    Ok(Trace { inputs, bad_index })
}

fn put_verdict(out: &mut Vec<u8>, verdict: &Verdict) {
    match verdict {
        Verdict::Proved { engine } => {
            out.push(0);
            put_string(out, engine);
        }
        Verdict::Falsified(trace) => {
            out.push(1);
            put_trace(out, trace);
        }
        Verdict::ResourceOut { reason } => {
            out.push(2);
            put_string(out, reason);
        }
    }
}

fn get_verdict(r: &mut Reader<'_>) -> Result<Verdict, CodecError> {
    match r.byte()? {
        0 => {
            let engine = r.string("proved engine")?;
            Ok(Verdict::Proved {
                engine: intern_engine_name(&engine),
            })
        }
        1 => Ok(Verdict::Falsified(get_trace(r)?)),
        2 => Ok(Verdict::ResourceOut {
            reason: r.string("resource reason")?,
        }),
        tag => Err(CodecError::BadTag {
            what: "verdict",
            tag,
        }),
    }
}

// ---------------------------------------------------------------------
// Portfolio run state
// ---------------------------------------------------------------------

fn put_run_checkpoint(out: &mut Vec<u8>, ck: &RunCheckpoint) {
    put_varint(out, ck.bad_index as u64);
    put_varint(out, ck.slot as u64);
    // 0 = nothing cleared, d + 1 = depths 0..=d cleared.
    put_varint(out, ck.cleared_depth.map_or(0, |d| d as u64 + 1));
    put_engine_checkpoint(out, &ck.state);
    put_stats(out, &ck.stats);
    put_varint(out, ck.reasons.len() as u64);
    for reason in &ck.reasons {
        put_string(out, reason);
    }
}

fn get_run_checkpoint(r: &mut Reader<'_>) -> Result<RunCheckpoint, CodecError> {
    let bad_index = r.varint_usize("bad index")?;
    let slot = r.varint_usize("slot")?;
    let cleared_depth = r.varint_usize("cleared depth")?.checked_sub(1);
    let state = get_engine_checkpoint(r)?;
    let stats = get_stats(r)?;
    let n = r.length("reasons", 1)?;
    let mut reasons = Vec::with_capacity(n);
    for _ in 0..n {
        reasons.push(r.string("reason")?);
    }
    Ok(RunCheckpoint {
        bad_index,
        slot,
        state,
        stats,
        reasons,
        cleared_depth,
    })
}

/// Tag byte in front of a checkpoint's [`RunCheckpoint`] payload, the
/// only state kind a checkpoint stores; any other tag is a
/// [`CodecError::BadTag`].
const RUN_CHECKPOINT_TAG: u8 = 0;

/// A fingerprinted on-disk checkpoint: the envelope that binds a
/// [`RunCheckpoint`] to the exact AIG and
/// [`CheckOptions`](veridic_mc::CheckOptions) it was taken under.
///
/// Layout: `magic ∥ version ∥ aig_fp ∥ options_fp ∥ 0 ∥ payload ∥
/// fnv64`, where the version is [`CHECKPOINT_VERSION`], both
/// fingerprints are raw little-endian u64, `0` is the state tag byte,
/// and the trailing checksum covers every preceding byte. Resuming against a different chip or different options is
/// refused with a typed error instead of silently producing a wrong
/// verdict.
#[derive(Clone, Debug)]
pub struct CheckpointFile {
    /// [`Aig::fingerprint`](veridic_aig::Aig::fingerprint) of the
    /// property's AIG.
    pub aig_fingerprint: u64,
    /// [`CheckOptions::fingerprint`](veridic_mc::CheckOptions::fingerprint)
    /// of the run's options.
    pub options_fingerprint: u64,
    /// The suspended run state.
    pub state: RunCheckpoint,
}

impl CheckpointFile {
    /// Serializes the envelope, checksummed.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.push(CHECKPOINT_VERSION);
        out.extend_from_slice(&self.aig_fingerprint.to_le_bytes());
        out.extend_from_slice(&self.options_fingerprint.to_le_bytes());
        out.push(RUN_CHECKPOINT_TAG);
        put_run_checkpoint(&mut out, &self.state);
        let checksum = fnv1a(wire::FNV_OFFSET, &out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decodes and fully validates an envelope. `expected` — the
    /// `(aig_fingerprint, options_fingerprint)` pair of the run about
    /// to resume — is checked when given; pass `None` to inspect a
    /// checkpoint without binding it (e.g. `campaign_ctl status`).
    pub fn decode(
        bytes: &[u8],
        expected: Option<(u64, u64)>,
    ) -> Result<CheckpointFile, CodecError> {
        let body = check_envelope(bytes, &CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
        let mut r = Reader::new(body);
        let aig_fingerprint = u64::from_le_bytes(
            r.bytes(8)?
                .try_into()
                .map_err(|_| WireError::Truncated { at: 0 })?,
        );
        let options_fingerprint = u64::from_le_bytes(
            r.bytes(8)?
                .try_into()
                .map_err(|_| WireError::Truncated { at: 8 })?,
        );
        if let Some((aig_fp, opts_fp)) = expected {
            if aig_fingerprint != aig_fp {
                return Err(CodecError::AigFingerprint {
                    expected: aig_fp,
                    found: aig_fingerprint,
                });
            }
            if options_fingerprint != opts_fp {
                return Err(CodecError::OptionsFingerprint {
                    expected: opts_fp,
                    found: options_fingerprint,
                });
            }
        }
        let state = match r.byte()? {
            RUN_CHECKPOINT_TAG => get_run_checkpoint(&mut r)?,
            tag => {
                return Err(CodecError::BadTag {
                    what: "persisted state",
                    tag,
                })
            }
        };
        r.expect_end()?;
        Ok(CheckpointFile {
            aig_fingerprint,
            options_fingerprint,
            state,
        })
    }
}

/// Strips and validates the common `magic ∥ version … fnv64` envelope;
/// returns the body between the version byte and the checksum.
fn check_envelope<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
    version: u8,
) -> Result<&'a [u8], CodecError> {
    if bytes.len() < magic.len() + 1 + 8 {
        return Err(CodecError::Wire(WireError::Truncated { at: bytes.len() }));
    }
    if &bytes[..4] != magic {
        return Err(CodecError::BadMagic);
    }
    if bytes[4] != version {
        return Err(CodecError::UnsupportedVersion(bytes[4]));
    }
    let content = &bytes[..bytes.len() - 8];
    let found = u64::from_le_bytes(
        bytes[bytes.len() - 8..]
            .try_into()
            .map_err(|_| WireError::Truncated { at: bytes.len() })?,
    );
    let expected = fnv1a(wire::FNV_OFFSET, content);
    if expected != found {
        return Err(CodecError::Checksum { expected, found });
    }
    Ok(&content[5..])
}

// ---------------------------------------------------------------------
// Journal records
// ---------------------------------------------------------------------

fn category_tag(c: Category) -> u8 {
    match c {
        Category::A => 0,
        Category::B => 1,
        Category::C => 2,
        Category::D => 3,
        Category::E => 4,
    }
}

fn category_from(tag: u8) -> Result<Category, CodecError> {
    Ok(match tag {
        0 => Category::A,
        1 => Category::B,
        2 => Category::C,
        3 => Category::D,
        4 => Category::E,
        tag => {
            return Err(CodecError::BadTag {
                what: "category",
                tag,
            })
        }
    })
}

fn ptype_tag(p: PropertyType) -> u8 {
    match p {
        PropertyType::ErrorDetection => 0,
        PropertyType::Soundness => 1,
        PropertyType::OutputIntegrity => 2,
        PropertyType::Other => 3,
    }
}

fn ptype_from(tag: u8) -> Result<PropertyType, CodecError> {
    Ok(match tag {
        0 => PropertyType::ErrorDetection,
        1 => PropertyType::Soundness,
        2 => PropertyType::OutputIntegrity,
        3 => PropertyType::Other,
        tag => {
            return Err(CodecError::BadTag {
                what: "property type",
                tag,
            })
        }
    })
}

/// Serializes a completed [`PropertyRecord`] for a journal `done` line
/// (same envelope discipline as [`CheckpointFile`]: magic, version —
/// here [`RECORD_VERSION`] — and trailing checksum).
pub fn encode_record(record: &PropertyRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&RECORD_MAGIC);
    out.push(RECORD_VERSION);
    put_string(&mut out, &record.module);
    out.push(category_tag(record.category));
    put_string(&mut out, &record.vunit);
    put_string(&mut out, &record.label);
    out.push(ptype_tag(record.ptype));
    put_verdict(&mut out, &record.verdict);
    put_stats(&mut out, &record.stats);
    let micros = u64::try_from(record.duration.as_micros()).unwrap_or(u64::MAX);
    put_varint(&mut out, micros);
    let checksum = fnv1a(wire::FNV_OFFSET, &out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Decodes a journal `done` record.
pub fn decode_record(bytes: &[u8]) -> Result<PropertyRecord, CodecError> {
    let body = check_envelope(bytes, &RECORD_MAGIC, RECORD_VERSION)?;
    let mut r = Reader::new(body);
    let module = r.string("module")?;
    let category = category_from(r.byte()?)?;
    let vunit = r.string("vunit")?;
    let label = r.string("label")?;
    let ptype = ptype_from(r.byte()?)?;
    let verdict = get_verdict(&mut r)?;
    let stats = get_stats(&mut r)?;
    let duration = Duration::from_micros(r.varint()?);
    r.expect_end()?;
    Ok(PropertyRecord {
        module,
        category,
        vunit,
        label,
        ptype,
        verdict,
        stats,
        duration,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> RunCheckpoint {
        RunCheckpoint {
            bad_index: 1,
            slot: 0,
            state: EngineCheckpoint::Bmc { next_depth: 7 },
            stats: CheckStats {
                sat_conflicts: 42,
                events: vec![EngineEvent {
                    bad: "b0".into(),
                    engine: EngineId::Bmc,
                    outcome: EventOutcome::Suspended,
                    resources: EventResources {
                        sat_conflicts: 42,
                        bdd_allocated: 0,
                        bdd_peak_live: 0,
                        rounds: 7,
                    },
                }],
                ..CheckStats::default()
            },
            reasons: vec!["bmc: suspended".into()],
            cleared_depth: Some(6),
        }
    }

    /// Re-stamps an encoded envelope's checksum after a deliberate edit,
    /// so the edit is the only thing the decoder can object to.
    fn restamp(bytes: &mut [u8]) {
        let body = bytes.len() - 8;
        let checksum = fnv1a(wire::FNV_OFFSET, &bytes[..body]);
        bytes[body..].copy_from_slice(&checksum.to_le_bytes());
    }

    /// The sample checkpoint's encoding, byte for byte, as format
    /// version 3 writes it.
    const SAMPLE_BYTES: [u8; 78] = [
        86, 67, 75, 80, 3, 161, 0, 0, 0, 0, 0, 0, 0, 178, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 7, 0, 7, 1,
        2, 98, 48, 3, 98, 109, 99, 7, 42, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 42, 0, 0, 0, 1,
        14, 98, 109, 99, 58, 32, 115, 117, 115, 112, 101, 110, 100, 101, 100, 56, 26, 199, 48, 34,
        113, 159, 92,
    ];

    /// The sample checkpoint (without its cleared depth, which version
    /// 2 did not store) as format version 2 wrote it: a checkpoint of an
    /// older release is refused by version, and its job runs afresh.
    const SAMPLE_BYTES_V2: [u8; 77] = [
        86, 67, 75, 80, 2, 161, 0, 0, 0, 0, 0, 0, 0, 178, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 7, 1, 2,
        98, 48, 3, 98, 109, 99, 7, 42, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 42, 0, 0, 0, 1, 14,
        98, 109, 99, 58, 32, 115, 117, 115, 112, 101, 110, 100, 101, 100, 12, 177, 93, 24, 96, 96,
        106, 78,
    ];

    #[test]
    fn portfolio_checkpoint_round_trips() {
        let file = CheckpointFile {
            aig_fingerprint: 0xa1,
            options_fingerprint: 0xb2,
            state: sample_state(),
        };
        assert_eq!(file.encode(), SAMPLE_BYTES);
        let back = CheckpointFile::decode(&SAMPLE_BYTES, Some((0xa1, 0xb2))).unwrap(); // lint: allow
        let ck = back.state;
        assert_eq!(ck.bad_index, 1);
        assert_eq!(ck.state, EngineCheckpoint::Bmc { next_depth: 7 });
        assert_eq!(ck.stats.sat_conflicts, 42);
        assert_eq!(ck.stats.events.len(), 1);
        assert_eq!(ck.reasons, vec!["bmc: suspended".to_owned()]);
        assert_eq!(ck.cleared_depth, Some(6));
    }

    #[test]
    fn version_two_checkpoint_is_refused() {
        assert_eq!(
            CheckpointFile::decode(&SAMPLE_BYTES_V2, None).err(),
            Some(CodecError::UnsupportedVersion(2))
        );
    }

    #[test]
    fn flipped_byte_is_a_checksum_error() {
        let file = CheckpointFile {
            aig_fingerprint: 1,
            options_fingerprint: 2,
            state: sample_state(),
        };
        let mut bytes = file.encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            CheckpointFile::decode(&bytes, None),
            Err(CodecError::Checksum { .. })
        ));
    }

    /// A file of the previous layout (version 1) must be refused by
    /// version, not misparsed: here an otherwise valid envelope whose
    /// version byte says 1, with the checksum recomputed so the version
    /// check is the only thing that can object.
    #[test]
    fn version_one_envelope_is_refused() {
        let mut bytes = SAMPLE_BYTES;
        assert_eq!(bytes[4], CHECKPOINT_VERSION);
        bytes[4] = 1;
        restamp(&mut bytes);
        assert!(matches!(
            CheckpointFile::decode(&bytes, None),
            Err(CodecError::UnsupportedVersion(1))
        ));
    }

    /// A checkpoint with state tag 1 (the lane state of the removed
    /// adaptive scheduler) is a typed refusal, so its job restarts like
    /// any other stale checkpoint's.
    #[test]
    fn adaptive_state_tag_is_refused() {
        let mut bytes = SAMPLE_BYTES;
        let tag_at = 4 + 1 + 8 + 8;
        assert_eq!(bytes[tag_at], RUN_CHECKPOINT_TAG);
        bytes[tag_at] = 1;
        restamp(&mut bytes);
        assert_eq!(
            CheckpointFile::decode(&bytes, None).err(),
            Some(CodecError::BadTag {
                what: "persisted state",
                tag: 1
            })
        );
    }

    #[test]
    fn truncation_is_typed() {
        let file = CheckpointFile {
            aig_fingerprint: 1,
            options_fingerprint: 2,
            state: sample_state(),
        };
        let bytes = file.encode();
        for cut in [0, 4, 5, 12, bytes.len() - 9, bytes.len() - 1] {
            let err = CheckpointFile::decode(&bytes[..cut], None);
            assert!(err.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn fingerprint_mismatches_are_distinguished() {
        let file = CheckpointFile {
            aig_fingerprint: 0xaaaa,
            options_fingerprint: 0xbbbb,
            state: sample_state(),
        };
        let bytes = file.encode();
        assert!(matches!(
            CheckpointFile::decode(&bytes, Some((0xdead, 0xbbbb))),
            Err(CodecError::AigFingerprint { .. })
        ));
        assert!(matches!(
            CheckpointFile::decode(&bytes, Some((0xaaaa, 0xdead))),
            Err(CodecError::OptionsFingerprint { .. })
        ));
    }

    #[test]
    fn verdicts_round_trip_including_traces() {
        for verdict in [
            Verdict::Proved { engine: "bdd-umc" },
            Verdict::Proved {
                engine: intern_engine_name("some-exotic-engine"),
            },
            Verdict::Falsified(Trace {
                inputs: vec![vec![true, false, true], vec![false; 9], vec![]],
                bad_index: 3,
            }),
            Verdict::ResourceOut {
                reason: "all engines exhausted".into(),
            },
        ] {
            let mut out = Vec::new();
            put_verdict(&mut out, &verdict);
            let mut r = Reader::new(&out);
            let back = get_verdict(&mut r).unwrap(); // lint: allow
            r.expect_end().unwrap(); // lint: allow
            assert_eq!(back, verdict);
        }
    }

    #[test]
    fn record_round_trips() {
        let record = PropertyRecord {
            module: "csr_file_0".into(),
            category: Category::C,
            vunit: "v_csr".into(),
            label: "parity_detects".into(),
            ptype: PropertyType::ErrorDetection,
            verdict: Verdict::Proved {
                engine: "bmc-induction",
            },
            stats: CheckStats {
                iterations: 5,
                ..CheckStats::default()
            },
            duration: Duration::from_micros(12_345),
        };
        let bytes = encode_record(&record);
        let back = decode_record(&bytes).unwrap(); // lint: allow
        assert_eq!(back.module, record.module);
        assert_eq!(back.category, record.category);
        assert_eq!(back.ptype, record.ptype);
        assert_eq!(back.verdict, record.verdict);
        assert_eq!(back.stats, record.stats);
        assert_eq!(back.duration, record.duration);
    }

    /// A finished record with a counterexample trace and an event log.
    fn sample_record() -> PropertyRecord {
        let event = |outcome, sat_conflicts, rounds| EngineEvent {
            bad: "pIntegrityO_2".into(),
            engine: EngineId::Bmc,
            outcome,
            resources: EventResources {
                sat_conflicts,
                bdd_allocated: 0,
                bdd_peak_live: 0,
                rounds,
            },
        };
        PropertyRecord {
            module: "mod_a00".into(),
            category: Category::A,
            vunit: "mod_a00_integrity".into(),
            label: "pIntegrityO_2".into(),
            ptype: PropertyType::OutputIntegrity,
            verdict: Verdict::Falsified(Trace {
                inputs: vec![vec![true, false, true], vec![false; 9]],
                bad_index: 2,
            }),
            stats: CheckStats {
                events: vec![
                    event(EventOutcome::Suspended, 5, 1),
                    event(EventOutcome::Falsified, 12, 2),
                ],
                coi_latches: 9,
                coi_ands: 40,
                per_bad_coi: vec![BadCoiStats {
                    bad: "pIntegrityO_2".into(),
                    latches: 9,
                    ands: 40,
                }],
                preanalysis: PreanalysisStats {
                    bads_analyzed: 1,
                    ..PreanalysisStats::default()
                },
                sat_conflicts: 17,
                ..CheckStats::default()
            },
            duration: Duration::from_micros(1_234),
        }
    }

    /// The sample record's encoding, byte for byte, as format version 2
    /// writes it: journal `done` lines already on disk must keep
    /// decoding, so a finished job is never run again.
    const RECORD_BYTES: [u8; 142] = [
        86, 82, 69, 67, 2, 7, 109, 111, 100, 95, 97, 48, 48, 0, 17, 109, 111, 100, 95, 97, 48, 48,
        95, 105, 110, 116, 101, 103, 114, 105, 116, 121, 13, 112, 73, 110, 116, 101, 103, 114, 105,
        116, 121, 79, 95, 50, 2, 1, 2, 2, 3, 5, 9, 0, 0, 2, 13, 112, 73, 110, 116, 101, 103, 114,
        105, 116, 121, 79, 95, 50, 3, 98, 109, 99, 7, 5, 0, 0, 1, 13, 112, 73, 110, 116, 101, 103,
        114, 105, 116, 121, 79, 95, 50, 3, 98, 109, 99, 0, 12, 0, 0, 2, 9, 40, 1, 13, 112, 73, 110,
        116, 101, 103, 114, 105, 116, 121, 79, 95, 50, 9, 40, 1, 0, 0, 0, 0, 0, 0, 17, 0, 0, 0,
        210, 9, 164, 31, 185, 94, 138, 4, 57, 144,
    ];

    #[test]
    fn journal_records_keep_their_layout() {
        assert_eq!(encode_record(&sample_record()), RECORD_BYTES);
        // The encoder writes every field, so re-encoding what the
        // decoder read back shows it read every field.
        let back = decode_record(&RECORD_BYTES).unwrap(); // lint: allow
        assert_eq!(encode_record(&back), RECORD_BYTES);
    }

    #[test]
    fn record_magic_is_not_a_checkpoint() {
        let record = PropertyRecord {
            module: "m".into(),
            category: Category::A,
            vunit: "v".into(),
            label: "l".into(),
            ptype: PropertyType::Other,
            verdict: Verdict::ResourceOut { reason: "r".into() },
            stats: CheckStats::default(),
            duration: Duration::ZERO,
        };
        let bytes = encode_record(&record);
        assert!(matches!(
            CheckpointFile::decode(&bytes, None),
            Err(CodecError::BadMagic)
        ));
    }
}
