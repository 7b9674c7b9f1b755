//! Unified, deterministic fault-injection registry for the shard driver.
//!
//! Every recovery path in `snr-driver` — worker respawn, checkpoint/resume,
//! in-process degradation — is only trustworthy if the failures that trigger
//! it can be produced on demand, deterministically, in tests and smoke runs.
//! This crate is a seeded registry of named fault *sites* that both the
//! coordinator and the worker binary consult at well-defined points.
//!
//! # Spec grammar
//!
//! A spec is a comma-separated list of actions (whitespace around commas is
//! ignored), carried in the `SNR_FAULT` environment variable or
//! `DriverConfig::fault`:
//!
//! ```text
//! spec          := action ("," action)*
//! action        := worker-fault | coord-fault | "seed:" u64
//! worker-fault  := ("kill" | "error_frame" | "corrupt_frame"
//!                    | "truncate_frame" | "respawn_fail") ":" wsel
//!                | "stall" ":" wsel ":" millis ["ms"]
//! wsel          := "w" u32 [ "@" ("round" | "phase") u32 ]
//! coord-fault   := ("checkpoint_io" | "halt") "@" ("round" | "phase") u32
//!                | ("spill_io" | "spill_corrupt") [ "@" ("round" | "phase") u32 ]
//! ```
//!
//! Examples: `kill:w1@round2`, `corrupt_frame:w0@round1`,
//! `stall:w2@round3:500ms`, `checkpoint_io@phase2,halt@phase3`,
//! `seed:42,truncate_frame:w1@round1`, `spill_io@round2`, `spill_corrupt`.
//!
//! # Semantics
//!
//! - An action without a round selector matches any round; one without a
//!   worker selector (coordinator sites only) matches any worker query.
//! - Every site fires **at most once** per registry, except [`FaultSite::Stall`],
//!   which stalls every matching task (the straggler tests rely on that).
//! - The seed (default [`DEFAULT_SEED`]) feeds [`splitmix64`] so corruption
//!   faults flip the same byte on every run.
//! - [`FaultRegistry::worker_spec`] re-serializes the subset of actions a
//!   given worker index should see, which is how the coordinator scopes the
//!   registry per subprocess — and how a *respawned* worker comes back
//!   healthy: only actions targeting a strictly later round survive the
//!   filter, so a crash fault does not re-kill the replacement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::fmt;

/// Primary environment variable carrying a fault spec.
pub const ENV_FAULT: &str = "SNR_FAULT";
/// Seed used when the spec does not carry a `seed:<n>` action.
pub const DEFAULT_SEED: u64 = 0x5EED_5EED;

/// A named point in the driver or worker where a fault can be injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// Worker: die with `exit(17)` on the first task of the matching round.
    Kill,
    /// Worker: sleep before answering each matching task.
    Stall,
    /// Worker: report a fatal `WorkerError` frame instead of scoring.
    ErrorFrame,
    /// Worker: corrupt the serialized claims of one `TaskDone` frame.
    CorruptFrame,
    /// Worker: truncate one `TaskDone` frame mid-body and exit.
    TruncateFrame,
    /// Coordinator: fail the exec of one respawn attempt.
    RespawnFail,
    /// Coordinator: fail one checkpoint write with an I/O error.
    CheckpointIo,
    /// Coordinator: abort the run after the matching phase completes (and
    /// checkpoints), simulating a coordinator crash between phases.
    Halt,
    /// Engine: fail one spill run-file write/flush with an I/O error while
    /// the MapReduce shuffle is spilling to disk.
    SpillIo,
    /// Engine: byte-flip one spill run file after the map phase writes it
    /// and before the reduce merge reads it back.
    SpillCorrupt,
}

impl FaultSite {
    fn name(self) -> &'static str {
        match self {
            FaultSite::Kill => "kill",
            FaultSite::Stall => "stall",
            FaultSite::ErrorFrame => "error_frame",
            FaultSite::CorruptFrame => "corrupt_frame",
            FaultSite::TruncateFrame => "truncate_frame",
            FaultSite::RespawnFail => "respawn_fail",
            FaultSite::CheckpointIo => "checkpoint_io",
            FaultSite::Halt => "halt",
            FaultSite::SpillIo => "spill_io",
            FaultSite::SpillCorrupt => "spill_corrupt",
        }
    }

    /// The selector keyword [`FaultAction::to_spec`] prints for this site.
    /// Worker and spill sites count engine *rounds*; the coordinator sites
    /// count driver *phases*. [`parse_round`] accepts either spelling.
    fn selector_keyword(self) -> &'static str {
        match self {
            FaultSite::CheckpointIo | FaultSite::Halt | FaultSite::RespawnFail => "phase",
            _ => "round",
        }
    }

    /// Whether this site is evaluated inside a worker subprocess (and so
    /// travels through [`FaultRegistry::worker_spec`]).
    pub fn is_worker_site(self) -> bool {
        matches!(
            self,
            FaultSite::Kill
                | FaultSite::Stall
                | FaultSite::ErrorFrame
                | FaultSite::CorruptFrame
                | FaultSite::TruncateFrame
        )
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One parsed action: a site plus its selectors.
#[derive(Debug)]
pub struct FaultAction {
    /// Where the fault fires.
    pub site: FaultSite,
    /// Worker index selector (`None` matches any worker query).
    pub worker: Option<u32>,
    /// Round/phase selector (`None` matches any round query).
    pub round: Option<u32>,
    /// Stall duration in milliseconds (stall actions only).
    pub millis: Option<u64>,
    fired: Cell<bool>,
}

impl FaultAction {
    fn matches(&self, site: FaultSite, worker: Option<u32>, round: Option<u32>) -> bool {
        self.site == site
            && self.worker.is_none_or(|aw| worker == Some(aw))
            && self.round.is_none_or(|ar| round == Some(ar))
    }

    /// Re-serializes the action in canonical spec grammar.
    pub fn to_spec(&self) -> String {
        let mut s = self.site.name().to_string();
        if let Some(w) = self.worker {
            s.push_str(&format!(":w{w}"));
        }
        if let Some(r) = self.round {
            s.push_str(&format!("@{}{r}", self.site.selector_keyword()));
        }
        if let Some(ms) = self.millis {
            s.push_str(&format!(":{ms}"));
        }
        s
    }
}

/// What a fired fault asks the caller to do.
#[derive(Clone, Copy, Debug)]
pub struct FaultHit {
    /// The site that fired.
    pub site: FaultSite,
    /// Stall duration in milliseconds (0 for non-stall sites).
    pub millis: u64,
}

/// A parsed, seeded set of fault actions.
#[derive(Debug, Default)]
pub struct FaultRegistry {
    seed: Option<u64>,
    actions: Vec<FaultAction>,
}

impl FaultRegistry {
    /// A registry with no actions: every [`FaultRegistry::fire`] misses.
    pub fn empty() -> Self {
        FaultRegistry::default()
    }

    /// Parses a spec string. Empty and all-whitespace specs yield an empty
    /// registry; any unparseable action is an error naming the action.
    pub fn parse(spec: &str) -> Result<FaultRegistry, String> {
        let mut reg = FaultRegistry::default();
        for raw in spec.split(',') {
            let item = raw.trim();
            if item.is_empty() {
                if spec.trim().is_empty() {
                    continue;
                }
                return Err(format!("empty action in fault spec {spec:?}"));
            }
            reg.parse_action(item)?;
        }
        Ok(reg)
    }

    /// Reads the spec from [`ENV_FAULT`]. A malformed value is reported on
    /// stderr and treated as empty (a worker must never crash on its
    /// environment).
    pub fn from_env() -> FaultRegistry {
        let spec = std::env::var(ENV_FAULT).ok().filter(|s| !s.is_empty());
        match spec {
            None => FaultRegistry::empty(),
            Some(s) => FaultRegistry::parse(&s).unwrap_or_else(|e| {
                snr_telemetry::warn!("ignoring unparseable fault spec: {e}");
                FaultRegistry::empty()
            }),
        }
    }

    fn parse_action(&mut self, item: &str) -> Result<(), String> {
        // Coordinator sites attach their selector to the site name itself:
        // `halt@phase2` has no ':' segments at all.
        let segments: Vec<&str> = item.split(':').collect();
        let (site_name, at) = match segments[0].split_once('@') {
            Some((s, at)) => (s, Some(at)),
            None => (segments[0], None),
        };
        let err = |why: &str| Err(format!("bad fault action {item:?}: {why}"));
        match (site_name, at, segments.len()) {
            ("seed", None, 2) => {
                let n = segments[1].parse().map_err(|_| format!("bad seed in {item:?}"))?;
                self.seed = Some(n);
            }
            ("checkpoint_io" | "halt", Some(at), 1) => {
                let site =
                    if site_name == "halt" { FaultSite::Halt } else { FaultSite::CheckpointIo };
                self.push(site, None, Some(parse_round(at, item)?), None);
            }
            // Spill sites take no worker selector and an *optional* round:
            // a bare `spill_io` faults the first spill of the run.
            ("spill_io" | "spill_corrupt", at, 1) => {
                let site = if site_name == "spill_io" {
                    FaultSite::SpillIo
                } else {
                    FaultSite::SpillCorrupt
                };
                let round = at.map(|a| parse_round(a, item)).transpose()?;
                self.push(site, None, round, None);
            }
            ("spill_io" | "spill_corrupt", _, _) => {
                return err("expected `spill_io[@round<R>]` (no worker selector)");
            }
            (
                "kill" | "error_frame" | "corrupt_frame" | "truncate_frame" | "respawn_fail",
                None,
                2,
            ) => {
                let site = match site_name {
                    "kill" => FaultSite::Kill,
                    "error_frame" => FaultSite::ErrorFrame,
                    "corrupt_frame" => FaultSite::CorruptFrame,
                    "truncate_frame" => FaultSite::TruncateFrame,
                    _ => FaultSite::RespawnFail,
                };
                let (w, r) = parse_wsel(segments[1], item)?;
                self.push(site, Some(w), r, None);
            }
            ("stall", None, 3) => {
                let (w, r) = parse_wsel(segments[1], item)?;
                let ms_str = segments[2].strip_suffix("ms").unwrap_or(segments[2]);
                let ms = ms_str.parse().map_err(|_| format!("bad millis in {item:?}"))?;
                self.push(FaultSite::Stall, Some(w), r, Some(ms));
            }
            (
                "kill" | "error_frame" | "corrupt_frame" | "truncate_frame" | "respawn_fail",
                None,
                _,
            ) => {
                return err("expected one `:w<N>[@round<R>]` selector");
            }
            ("stall", None, _) => return err("expected `stall:w<N>[@round<R>]:<MS>`"),
            _ => return err("unknown fault site"),
        }
        Ok(())
    }

    fn push(
        &mut self,
        site: FaultSite,
        worker: Option<u32>,
        round: Option<u32>,
        millis: Option<u64>,
    ) {
        self.actions.push(FaultAction { site, worker, round, millis, fired: Cell::new(false) });
    }

    /// Whether the registry holds no actions at all.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The corruption seed (spec `seed:<n>` or [`DEFAULT_SEED`]).
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_SEED)
    }

    /// The parsed actions, in spec order.
    pub fn actions(&self) -> &[FaultAction] {
        &self.actions
    }

    /// Consults the registry at one site. Returns the first matching action
    /// as a [`FaultHit`] and arms its fire-once latch ([`FaultSite::Stall`]
    /// keeps firing — a straggler straggles on every task).
    pub fn fire(
        &self,
        site: FaultSite,
        worker: Option<u32>,
        round: Option<u32>,
    ) -> Option<FaultHit> {
        for a in &self.actions {
            if a.fired.get() || !a.matches(site, worker, round) {
                continue;
            }
            if a.site != FaultSite::Stall {
                a.fired.set(true);
            }
            snr_telemetry::Counter::FaultsFired.add(1);
            snr_telemetry::event!(
                "fault_fired",
                site = a.site.name(),
                worker = worker.map_or_else(|| "any".to_string(), |w| w.to_string()),
                round = round.map_or_else(|| "any".to_string(), |r| r.to_string()),
            );
            return Some(FaultHit { site: a.site, millis: a.millis.unwrap_or(0) });
        }
        None
    }

    /// Re-serializes the worker-site actions targeting worker `worker`
    /// (with the seed, so corruption stays deterministic). When
    /// `after_round` is set — a respawn during that round — only actions
    /// pinned to a strictly later round are kept: round-less actions and
    /// the fault that just killed the first incarnation stay behind, so the
    /// replacement process comes up healthy. Returns `None` when nothing
    /// applies.
    pub fn worker_spec(&self, worker: u32, after_round: Option<u32>) -> Option<String> {
        let mut parts: Vec<String> = Vec::new();
        for a in &self.actions {
            if !a.site.is_worker_site() || a.worker != Some(worker) {
                continue;
            }
            if let Some(cut) = after_round {
                match a.round {
                    Some(r) if r > cut => {}
                    _ => continue,
                }
            }
            parts.push(a.to_spec());
        }
        if parts.is_empty() {
            return None;
        }
        if let Some(seed) = self.seed {
            parts.insert(0, format!("seed:{seed}"));
        }
        Some(parts.join(","))
    }
}

fn parse_wsel(token: &str, item: &str) -> Result<(u32, Option<u32>), String> {
    let (wtok, round) = match token.split_once('@') {
        Some((w, at)) => (w, Some(parse_round(at, item)?)),
        None => (token, None),
    };
    let w = wtok
        .strip_prefix('w')
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("bad worker selector {wtok:?} in {item:?} (expected w<N>)"))?;
    Ok((w, round))
}

fn parse_round(at: &str, item: &str) -> Result<u32, String> {
    at.strip_prefix("round")
        .or_else(|| at.strip_prefix("phase"))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| {
            format!("bad round selector {at:?} in {item:?} (expected round<R> or phase<R>)")
        })
}

/// SplitMix64: the deterministic byte-picker behind corruption faults.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministically corrupts a payload in place: XORs one seed-chosen byte
/// and drops the final byte. The truncation guarantees that any
/// length-validated decoder (e.g. `SinkClaims::decode`) rejects the payload
/// regardless of which byte the XOR landed on.
pub fn corrupt_payload(bytes: &mut Vec<u8>, seed: u64) {
    if bytes.is_empty() {
        return;
    }
    let i = (splitmix64(seed ^ bytes.len() as u64) % bytes.len() as u64) as usize;
    bytes[i] ^= 0x5A;
    bytes.pop();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composed_spec_parses_and_fires_once() {
        let reg = FaultRegistry::parse("kill:w1@round2,corrupt_frame:w0@round1,seed:7").unwrap();
        assert_eq!(reg.seed(), 7);
        assert_eq!(reg.actions().len(), 2);
        // Wrong worker / wrong round miss.
        assert!(reg.fire(FaultSite::Kill, Some(0), Some(2)).is_none());
        assert!(reg.fire(FaultSite::Kill, Some(1), Some(1)).is_none());
        // Exact match fires exactly once.
        assert!(reg.fire(FaultSite::Kill, Some(1), Some(2)).is_some());
        assert!(reg.fire(FaultSite::Kill, Some(1), Some(2)).is_none());
        assert!(reg.fire(FaultSite::CorruptFrame, Some(0), Some(1)).is_some());
    }

    #[test]
    fn stall_fires_every_matching_task() {
        let reg = FaultRegistry::parse("stall:w2:250ms").unwrap();
        for round in 1..4 {
            let hit = reg.fire(FaultSite::Stall, Some(2), Some(round)).unwrap();
            assert_eq!(hit.millis, 250);
        }
        assert!(reg.fire(FaultSite::Stall, Some(0), Some(1)).is_none());
    }

    #[test]
    fn coordinator_sites_take_phase_selectors() {
        let reg = FaultRegistry::parse("checkpoint_io@phase2,halt@phase3").unwrap();
        assert!(reg.fire(FaultSite::CheckpointIo, None, Some(1)).is_none());
        assert!(reg.fire(FaultSite::CheckpointIo, None, Some(2)).is_some());
        assert!(reg.fire(FaultSite::Halt, None, Some(3)).is_some());
        assert!(reg.fire(FaultSite::Halt, None, Some(3)).is_none(), "halt is fire-once");
    }

    #[test]
    fn spill_sites_take_optional_round_selectors_and_fire_once() {
        let reg = FaultRegistry::parse("spill_io@round2,spill_corrupt").unwrap();
        // Round-pinned spill_io misses other rounds, hits round 2 once.
        assert!(reg.fire(FaultSite::SpillIo, None, Some(1)).is_none());
        assert!(reg.fire(FaultSite::SpillIo, None, Some(2)).is_some());
        assert!(reg.fire(FaultSite::SpillIo, None, Some(2)).is_none(), "spill_io is fire-once");
        // Selector-less spill_corrupt hits the first round queried, once.
        assert!(reg.fire(FaultSite::SpillCorrupt, None, Some(7)).is_some());
        assert!(reg.fire(FaultSite::SpillCorrupt, None, Some(8)).is_none());
        // Spill sites never travel through worker_spec.
        assert!(!FaultSite::SpillIo.is_worker_site());
        assert!(!FaultSite::SpillCorrupt.is_worker_site());
        assert!(reg.worker_spec(0, None).is_none());
    }

    #[test]
    fn spill_specs_round_trip_through_to_spec() {
        let reg = FaultRegistry::parse("spill_io@round3,spill_corrupt@phase1,spill_io").unwrap();
        let specs: Vec<String> = reg.actions().iter().map(|a| a.to_spec()).collect();
        assert_eq!(specs, ["spill_io@round3", "spill_corrupt@round1", "spill_io"]);
        let reparsed = FaultRegistry::parse(&specs.join(",")).unwrap();
        assert!(reparsed.fire(FaultSite::SpillIo, None, Some(3)).is_some());
        assert!(reparsed.fire(FaultSite::SpillCorrupt, None, Some(1)).is_some());
    }

    #[test]
    fn worker_spec_scopes_and_filters_respawns() {
        let reg = FaultRegistry::parse("kill:w1@round1,kill:w1@round3,stall:w1:10,kill:w0@round2")
            .unwrap();
        // First incarnation of w1 sees everything addressed to it.
        let spec = reg.worker_spec(1, None).unwrap();
        let w1 = FaultRegistry::parse(&spec).unwrap();
        assert!(w1.fire(FaultSite::Kill, Some(1), Some(1)).is_some());
        assert!(w1.fire(FaultSite::Stall, Some(1), Some(1)).is_some());
        // A respawn during round 1 only inherits strictly-later rounds: the
        // round-1 kill and the round-less stall are filtered out.
        let spec = reg.worker_spec(1, Some(1)).unwrap();
        let w1b = FaultRegistry::parse(&spec).unwrap();
        assert!(w1b.fire(FaultSite::Kill, Some(1), Some(1)).is_none());
        assert!(w1b.fire(FaultSite::Stall, Some(1), Some(2)).is_none());
        assert!(w1b.fire(FaultSite::Kill, Some(1), Some(3)).is_some());
        // Nothing left after round 3 — and w2 never had anything.
        assert!(reg.worker_spec(1, Some(3)).is_none());
        assert!(reg.worker_spec(2, None).is_none());
    }

    #[test]
    fn worker_spec_carries_the_seed() {
        let reg = FaultRegistry::parse("seed:99,corrupt_frame:w0@round1").unwrap();
        let spec = reg.worker_spec(0, None).unwrap();
        assert_eq!(FaultRegistry::parse(&spec).unwrap().seed(), 99);
    }

    #[test]
    fn junk_specs_are_errors_not_panics() {
        for bad in [
            "explode",
            "kill",
            "kill:1",
            "kill:w1@round",
            "kill:wx@round1",
            "stall:w0",
            "stall:w0:abc",
            "seed:-1",
            "halt",
            "halt@banana2",
            "kill:w1,,stall:w0:5",
            "spill_io:w0",
            "spill_io@round",
            "spill_corrupt@banana1",
            "spill_corrupt:w1@round2",
            "kill_worker:1",
            "stall_worker:1500",
        ] {
            assert!(FaultRegistry::parse(bad).is_err(), "{bad:?} should be rejected");
        }
        assert!(FaultRegistry::parse("").unwrap().is_empty());
        assert!(FaultRegistry::parse("  ").unwrap().is_empty());
    }

    #[test]
    fn corrupt_payload_is_deterministic_and_always_shrinks() {
        let mut a = vec![1u8; 64];
        let mut b = vec![1u8; 64];
        corrupt_payload(&mut a, 42);
        corrupt_payload(&mut b, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 63);
        let mut c = vec![1u8; 64];
        corrupt_payload(&mut c, 43);
        // Different seeds pick different bytes (for these sizes).
        assert!(a != c || splitmix64(42 ^ 64) % 64 == splitmix64(43 ^ 64) % 64);
        let mut empty: Vec<u8> = Vec::new();
        corrupt_payload(&mut empty, 1);
        assert!(empty.is_empty());
    }
}
