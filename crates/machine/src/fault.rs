//! Fault model: whole-machine outages plus per-node failure/repair.
//!
//! The paper's outage story stops at full-machine windows that only block
//! job *starts* ([`OutageSchedule`]). Real ASCI logs also contain partial
//! degradation: individual nodes crash and come back, taking their CPUs out
//! of service and killing whatever ran on them. [`FaultModel`] generalizes
//! the outage schedule into both layers:
//!
//! * **machine outages** — the existing whole-machine windows, unchanged
//!   semantics (no starts while down, running jobs drain);
//! * **node faults** — a set of nodes partitioning the machine's CPUs, each
//!   with its own failure/repair window schedule (typically drawn from
//!   seeded exponential MTBF/MTTR processes). A down node removes its CPUs
//!   from capacity and crashes the jobs occupying them.
//!
//! Everything is deterministic: node schedules are pure functions of the
//! seed (independent [`Rng::split`] streams per node), so the same spec
//! reproduces the same failure timeline bit-for-bit.

use crate::outage::OutageSchedule;
use simkit::rng::Rng;
use simkit::time::{SimDuration, SimTime};

/// One node's share of the machine and its failure/repair timeline.
#[derive(Clone, Debug)]
pub struct NodeFaults {
    /// CPUs this node contributes to the pool.
    pub cpus: u32,
    /// Down windows for this node (sorted, disjoint).
    pub schedule: OutageSchedule,
}

/// Parsed `--faults` specification: `mtbf=SECS,mttr=SECS,nodes=N[,seed=S]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Mean time between failures per node, seconds.
    pub mtbf: SimDuration,
    /// Mean time to repair per node, seconds.
    pub mttr: SimDuration,
    /// Number of equal nodes the machine is partitioned into.
    pub nodes: u32,
    /// Seed for the failure/repair draws.
    pub seed: u64,
}

impl FaultSpec {
    /// Parse a `key=value` comma list. Required keys: `mtbf`, `mttr`,
    /// `nodes` (integer seconds / count); optional `seed` (default 0).
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut mtbf = None;
        let mut mttr = None;
        let mut nodes = None;
        let mut seed = 0u64;
        for part in s.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("--faults: expected key=value, got {part:?}"))?;
            let n: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("--faults: {key} wants an integer, got {value:?}"))?;
            match key.trim() {
                "mtbf" => mtbf = Some(SimDuration::from_secs(n)),
                "mttr" => mttr = Some(SimDuration::from_secs(n)),
                "nodes" => {
                    nodes = Some(
                        u32::try_from(n)
                            .ok()
                            .filter(|&k| k > 0)
                            .ok_or_else(|| format!("--faults: bad node count {value:?}"))?,
                    )
                }
                "seed" => seed = n,
                other => {
                    return Err(format!(
                        "--faults: unknown key {other:?} (use mtbf, mttr, nodes, seed)"
                    ))
                }
            }
        }
        let (Some(mtbf), Some(mttr), Some(nodes)) = (mtbf, mttr, nodes) else {
            let keys = [
                ("mtbf", mtbf.is_none()),
                ("mttr", mttr.is_none()),
                ("nodes", nodes.is_none()),
            ];
            let missing: Vec<&str> = keys.iter().filter(|k| k.1).map(|k| k.0).collect();
            return Err(format!(
                "--faults: missing required key(s) {} in {s:?} \
                 (mtbf=, mttr= and nodes= are all required)",
                missing.join(", ")
            ));
        };
        for (key, value) in [("mtbf", mtbf), ("mttr", mttr)] {
            if value.is_zero() {
                return Err(format!(
                    "--faults: {key} must be positive seconds, got {key}=0 in {s:?}"
                ));
            }
        }
        Ok(FaultSpec {
            mtbf,
            mttr,
            nodes,
            seed,
        })
    }
}

/// Whole-machine outages plus per-node failure/repair processes.
#[derive(Clone, Debug, Default)]
pub struct FaultModel {
    outages: OutageSchedule,
    nodes: Vec<NodeFaults>,
}

impl FaultModel {
    /// A perfect machine: no outages, no node failures. Simulations built
    /// with this model behave bit-for-bit like the pre-fault-model code.
    pub fn none() -> Self {
        Self::default()
    }

    /// Replace the whole-machine outage schedule, keeping node faults.
    pub fn with_outages(mut self, outages: OutageSchedule) -> Self {
        self.outages = outages;
        self
    }

    /// Attach explicit per-node schedules.
    pub fn with_nodes(mut self, nodes: Vec<NodeFaults>) -> Self {
        self.nodes = nodes;
        self
    }

    /// Synthesize per-node failure/repair schedules from a spec: the
    /// machine's `total_cpus` are split evenly across `spec.nodes` nodes
    /// (remainder spread over the first nodes), and each node alternates
    /// Exp(`mtbf`) uptime with Exp(`mttr`) downtime over `[0, horizon)`,
    /// drawn from an independent per-node stream of `spec.seed`.
    pub fn synthesize(spec: &FaultSpec, total_cpus: u32, horizon: SimTime) -> Self {
        use simkit::dist::{Exp, Sample};
        let n = spec.nodes.min(total_cpus).max(1);
        let base = total_cpus / n;
        let extra = total_cpus % n;
        let up = Exp::with_mean(spec.mtbf.as_secs_f64().max(1.0));
        let down = Exp::with_mean(spec.mttr.as_secs_f64().max(1.0));
        let root = Rng::new(spec.seed);
        let mut nodes = Vec::with_capacity(n as usize);
        for i in 0..n {
            let cpus = base + u32::from(i < extra);
            let mut rng = root.split(u64::from(i));
            let mut windows = Vec::new();
            let mut t = SimTime::ZERO + SimDuration::from_secs_f64(up.sample(&mut rng));
            while t < horizon {
                let end = (t + SimDuration::from_secs_f64(down.sample(&mut rng))).min(horizon);
                windows.push((t, end));
                t = end + SimDuration::from_secs_f64(up.sample(&mut rng));
            }
            nodes.push(NodeFaults {
                cpus,
                schedule: OutageSchedule::from_windows(windows),
            });
        }
        FaultModel {
            outages: OutageSchedule::none(),
            nodes,
        }
    }

    /// The whole-machine outage schedule.
    pub fn machine_outages(&self) -> &OutageSchedule {
        &self.outages
    }

    /// The per-node failure schedules.
    pub fn nodes(&self) -> &[NodeFaults] {
        &self.nodes
    }

    /// True when the model injects nothing (the perfect machine).
    pub fn is_none(&self) -> bool {
        self.outages.windows().is_empty()
            && self.nodes.iter().all(|n| n.schedule.windows().is_empty())
    }

    /// CPUs held by nodes that are down at `t`.
    pub fn down_cpus(&self, t: SimTime) -> u32 {
        self.nodes
            .iter()
            .filter(|n| n.schedule.is_down(t))
            .map(|n| n.cpus)
            .sum()
    }

    /// The time-varying capacity: CPUs in service at `t` out of
    /// `total_cpus`. Whole-machine outages are *not* subtracted here — they
    /// gate job starts, matching the paper's drain semantics — only failed
    /// nodes reduce capacity.
    pub fn available_cpus(&self, t: SimTime, total_cpus: u32) -> u32 {
        total_cpus.saturating_sub(self.down_cpus(t))
    }

    /// The capacity timeline over `[0, horizon)` as step segments
    /// `(start, available_cpus)`, starting at `t = 0` and changing at every
    /// node failure/repair boundary. Adjacent equal-capacity segments are
    /// merged.
    pub fn capacity_profile(&self, total_cpus: u32, horizon: SimTime) -> Vec<(SimTime, u32)> {
        let mut edges: Vec<SimTime> = vec![SimTime::ZERO];
        for n in &self.nodes {
            for &(a, b) in n.schedule.windows() {
                if a < horizon {
                    edges.push(a);
                }
                if b < horizon {
                    edges.push(b);
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let mut out: Vec<(SimTime, u32)> = Vec::with_capacity(edges.len());
        for t in edges {
            let avail = self.available_cpus(t, total_cpus);
            match out.last() {
                Some(&(_, prev)) if prev == avail => {}
                _ => out.push((t, avail)),
            }
        }
        out
    }
}

/// One fault-induced job kill, recorded for survival analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KilledJob {
    /// Job id.
    pub job: u64,
    /// CPUs the job held.
    pub cpus: u32,
    /// The job's nominal (full) runtime, seconds.
    pub runtime_s: u64,
    /// True for interstitial jobs.
    pub interstitial: bool,
}

/// Cumulative fault/recovery accounting for one simulation run: the
/// event counts, every fault kill, and the CPU·second [`CpuLedger`].
#[derive(Clone, Debug, Default)]
pub struct FaultStats {
    /// Node-down boundaries processed.
    pub node_failures: u64,
    /// Node-up boundaries processed.
    pub node_repairs: u64,
    /// Native jobs killed by node failures (each is requeued at the head).
    pub native_requeues: u64,
    /// Interstitial jobs killed by node failures and rescheduled under the
    /// retry policy.
    pub interstitial_retries: u64,
    /// Interstitial jobs abandoned: retry budget exhausted, or no room left
    /// before the horizon.
    pub interstitial_given_up: u64,
    /// Evicted interstitial jobs that later restarted with credited
    /// progress (`job_resumed` events).
    pub interstitial_resumes: u64,
    /// Every fault kill, for survival-probability analysis.
    pub kills: Vec<KilledJob>,
    /// Every CPU·second the run's faults, preemptions and recoveries moved.
    pub ledger: CpuLedger,
}

impl FaultStats {
    /// Total fault kills across both job classes.
    pub fn total_kills(&self) -> u64 {
        self.kills.len() as u64
    }
}

/// CPU·seconds of overhead a job pays per completed checkpoint, per CPU.
///
/// A fixed, small figure (state serialization to the parallel filesystem)
/// keeps the checkpoint timeline a pure function of `(progress, interval)`;
/// the resilience report surfaces the accumulated overhead separately from
/// re-executed work so the policy frontier stays readable.
pub const CHECKPOINT_OVERHEAD_S: u64 = 10;

/// What ended an interstitial attempt before its work was done.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Eviction {
    /// A node failure crashed it.
    Fault,
    /// A kill-mode preemption reclaimed its CPUs for the native head.
    Preempt,
}

/// `cpus × d` in CPU·seconds.
fn cpu_s(cpus: u32, d: SimDuration) -> u64 {
    u64::from(cpus) * d.as_secs()
}

/// The run's CPU·second ledger: every CPU·second a job held, and where the
/// part that did not become delivered work went. Integers throughout, one
/// method per life-cycle transition, and no stored figure is a sum of
/// others. Each method takes the attempt's `cpus`, how long it `ran` and,
/// for interstitial jobs, the work `done` the job had banked before it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CpuLedger {
    /// CPU·s held per class, native then interstitial, over every attempt.
    held: [u64; 2],
    /// Native attempts crashed by node faults.
    native_wasted: u64,
    /// Interstitial work lost to node-fault evictions and abandonment.
    fault_wasted: u64,
    /// Interstitial work lost to kill-mode preemption.
    preempt_wasted: u64,
    salvaged: u64,
    reexecuted: u64,
    checkpoints: u64,
    checkpoint_overhead: u64,
    preempt_kills: u64,
}

impl CpuLedger {
    /// An attempt ran to completion.
    pub fn complete(&mut self, interstitial: bool, cpus: u32, ran: SimDuration) {
        self.held[usize::from(interstitial)] += cpu_s(cpus, ran);
    }

    /// A node fault crashed a native attempt; the job requeues whole.
    pub fn native_fault_kill(&mut self, cpus: u32, ran: SimDuration) {
        self.held[0] += cpu_s(cpus, ran);
        self.native_wasted += cpu_s(cpus, ran);
    }

    /// An interstitial attempt was evicted and its job will run again.
    /// `kept` is the progress the recovery policy credits the job with,
    /// `None` when the policy keeps nothing (kill-restart): then the loss
    /// is plain waste rather than re-executed work, and a preempted job is
    /// killed outright. `checkpoints` were completed during the attempt.
    pub fn evict(
        &mut self,
        cause: Eviction,
        cpus: u32,
        done: SimDuration,
        ran: SimDuration,
        kept: Option<SimDuration>,
        checkpoints: u64,
    ) {
        let credited = kept.unwrap_or(SimDuration::ZERO);
        let lost = cpu_s(cpus, done + ran) - cpu_s(cpus, credited);
        self.held[1] += cpu_s(cpus, ran);
        self.salvaged = self.salvaged + cpu_s(cpus, credited) - cpu_s(cpus, done);
        match cause {
            Eviction::Fault => self.fault_wasted += lost,
            Eviction::Preempt => self.preempt_wasted += lost,
        }
        if kept.is_some() {
            self.reexecuted += lost;
        } else if cause == Eviction::Preempt {
            self.preempt_kills += 1;
        }
        self.checkpoints += checkpoints;
        self.checkpoint_overhead += u64::from(cpus) * checkpoints * CHECKPOINT_OVERHEAD_S;
    }

    /// A checkpoint-mode preemption froze an interstitial attempt: the
    /// whole attempt is carried to the job's resume.
    pub fn checkpoint_preempt(&mut self, cpus: u32, ran: SimDuration) {
        self.held[1] += cpu_s(cpus, ran);
        self.salvaged += cpu_s(cpus, ran);
    }

    /// An interstitial job was given up (`ran` is zero if it was waiting):
    /// the attempt and all the work it had banked are waste.
    pub fn abandon(&mut self, cpus: u32, done: SimDuration, ran: SimDuration) {
        self.held[1] += cpu_s(cpus, ran);
        self.salvaged -= cpu_s(cpus, done);
        self.fault_wasted += cpu_s(cpus, done + ran);
    }

    /// CPU·s the class held, over every attempt.
    pub fn held(&self, interstitial: bool) -> u64 {
        self.held[usize::from(interstitial)]
    }

    /// CPU·s of the class that never became delivered work.
    pub fn wasted(&self, interstitial: bool) -> u64 {
        [self.native_wasted, self.fault_wasted + self.preempt_wasted][usize::from(interstitial)]
    }

    /// CPU·s node faults destroyed, both classes (abandonment included).
    pub fn fault_wasted(&self) -> u64 {
        self.native_wasted + self.fault_wasted
    }

    /// The interstitial part of [`CpuLedger::fault_wasted`]: the figure the
    /// recovery policies move (native requeue waste is the same under every
    /// policy and dominates the sum).
    pub fn interstitial_fault_wasted(&self) -> u64 {
        self.fault_wasted
    }

    /// Interstitial CPU·s lost to kill-mode preemption.
    pub fn preempt_wasted(&self) -> u64 {
        self.preempt_wasted
    }

    /// Interstitial progress carried across a resume instead of being
    /// discarded, net of what abandoned jobs had carried.
    pub fn salvaged(&self) -> u64 {
        self.salvaged
    }

    /// Evicted work past the last credit that retried jobs execute twice
    /// (zero under kill-restart, whose losses are plain waste).
    pub fn reexecuted(&self) -> u64 {
        self.reexecuted
    }

    /// Checkpoints interstitial jobs completed.
    pub fn checkpoints_taken(&self) -> u64 {
        self.checkpoints
    }

    /// CPU·s spent writing checkpoints ([`CHECKPOINT_OVERHEAD_S`] per CPU
    /// per checkpoint).
    pub fn checkpoint_overhead(&self) -> u64 {
        self.checkpoint_overhead
    }

    /// Interstitial jobs killed outright by preemption.
    pub fn preempt_kills(&self) -> u64 {
        self.preempt_kills
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn spec_parsing_round_trips() {
        let spec = FaultSpec::parse("mtbf=36000,mttr=7200,nodes=16").unwrap();
        assert_eq!(spec.mtbf, SimDuration::from_secs(36_000));
        assert_eq!(spec.mttr, SimDuration::from_secs(7_200));
        assert_eq!(spec.nodes, 16);
        assert_eq!(spec.seed, 0);
        let spec = FaultSpec::parse("mtbf=100,mttr=10,nodes=4,seed=7").unwrap();
        assert_eq!(spec.seed, 7);
    }

    #[test]
    fn spec_parsing_rejects_garbage() {
        assert!(FaultSpec::parse("mtbf=100").is_err(), "missing keys");
        assert!(FaultSpec::parse("mtbf=x,mttr=1,nodes=2").is_err());
        assert!(FaultSpec::parse("mtbf=1,mttr=1,nodes=0").is_err());
        assert!(FaultSpec::parse("mtbf=0,mttr=1,nodes=2").is_err());
        assert!(FaultSpec::parse("mtbf=1,mttr=1,nodes=2,bogus=3").is_err());
        assert!(FaultSpec::parse("mtbf 1").is_err(), "no equals sign");
    }

    #[test]
    fn spec_parse_errors_name_the_offending_part() {
        // Every malformed form must point at the exact key/value at fault,
        // not just fail — operators paste these specs into job scripts.
        let err = FaultSpec::parse("mtbf 1").unwrap_err();
        assert!(err.contains("expected key=value"), "{err}");
        assert!(err.contains("\"mtbf 1\""), "{err}");

        let err = FaultSpec::parse("mtbf=x,mttr=1,nodes=2").unwrap_err();
        assert!(err.contains("mtbf wants an integer"), "{err}");
        assert!(err.contains("\"x\""), "{err}");

        let err = FaultSpec::parse("mtbf=1,mttr=1,nodes=0").unwrap_err();
        assert!(err.contains("bad node count"), "{err}");
        assert!(err.contains("\"0\""), "{err}");

        let err = FaultSpec::parse("mtbf=1,mttr=1,nodes=2,bogus=3").unwrap_err();
        assert!(err.contains("unknown key \"bogus\""), "{err}");

        let err = FaultSpec::parse("mtbf=100").unwrap_err();
        assert!(err.contains("missing required key(s) mttr, nodes"), "{err}");
        assert!(err.contains("\"mtbf=100\""), "{err}");

        let err = FaultSpec::parse("nodes=4").unwrap_err();
        assert!(err.contains("missing required key(s) mtbf, mttr"), "{err}");

        let err = FaultSpec::parse("").unwrap_err();
        assert!(
            err.contains("missing required key(s) mtbf, mttr, nodes"),
            "{err}"
        );

        let err = FaultSpec::parse("mtbf=0,mttr=1,nodes=2").unwrap_err();
        assert!(err.contains("mtbf must be positive seconds"), "{err}");
        assert!(err.contains("mtbf=0"), "{err}");

        let err = FaultSpec::parse("mtbf=1,mttr=0,nodes=2").unwrap_err();
        assert!(err.contains("mttr must be positive seconds"), "{err}");
    }

    #[test]
    fn none_is_a_perfect_machine() {
        let f = FaultModel::none();
        assert!(f.is_none());
        assert_eq!(f.available_cpus(t(123), 64), 64);
        assert_eq!(f.down_cpus(t(0)), 0);
        assert_eq!(f.capacity_profile(64, t(1_000)), vec![(t(0), 64)]);
    }

    #[test]
    fn node_partition_covers_the_machine() {
        let spec = FaultSpec::parse("mtbf=36000,mttr=3600,nodes=10,seed=3").unwrap();
        let f = FaultModel::synthesize(&spec, 64, SimTime::from_days(10));
        let total: u32 = f.nodes().iter().map(|n| n.cpus).sum();
        assert_eq!(total, 64);
        assert_eq!(f.nodes().len(), 10);
        // 64 = 6*10 + 4: the first four nodes take the remainder.
        assert_eq!(f.nodes()[0].cpus, 7);
        assert_eq!(f.nodes()[4].cpus, 6);
    }

    #[test]
    fn more_nodes_than_cpus_clamps() {
        let spec = FaultSpec::parse("mtbf=1000,mttr=100,nodes=99,seed=1").unwrap();
        let f = FaultModel::synthesize(&spec, 8, t(100_000));
        assert_eq!(f.nodes().len(), 8);
        assert!(f.nodes().iter().all(|n| n.cpus == 1));
    }

    #[test]
    fn synthesis_is_deterministic_per_seed() {
        let spec = FaultSpec::parse("mtbf=36000,mttr=3600,nodes=8,seed=42").unwrap();
        let horizon = SimTime::from_days(40);
        let a = FaultModel::synthesize(&spec, 64, horizon);
        let b = FaultModel::synthesize(&spec, 64, horizon);
        for (x, y) in a.nodes().iter().zip(b.nodes()) {
            assert_eq!(x.schedule.windows(), y.schedule.windows());
        }
        // A different seed must produce a different timeline.
        let mut other = spec;
        other.seed = 43;
        let c = FaultModel::synthesize(&other, 64, horizon);
        assert!(a
            .nodes()
            .iter()
            .zip(c.nodes())
            .any(|(x, y)| x.schedule.windows() != y.schedule.windows()));
    }

    #[test]
    fn capacity_tracks_node_windows() {
        let f = FaultModel::none().with_nodes(vec![
            NodeFaults {
                cpus: 16,
                schedule: OutageSchedule::from_windows(vec![(t(100), t(200))]),
            },
            NodeFaults {
                cpus: 48,
                schedule: OutageSchedule::from_windows(vec![(t(150), t(300))]),
            },
        ]);
        assert_eq!(f.available_cpus(t(0), 64), 64);
        assert_eq!(f.available_cpus(t(120), 64), 48);
        assert_eq!(f.available_cpus(t(160), 64), 0);
        assert_eq!(f.available_cpus(t(250), 64), 16);
        assert_eq!(f.available_cpus(t(300), 64), 64);
        assert_eq!(
            f.capacity_profile(64, t(1_000)),
            vec![
                (t(0), 64),
                (t(100), 48),
                (t(150), 0),
                (t(200), 16),
                (t(300), 64),
            ]
        );
        assert!(!f.is_none());
    }

    #[test]
    fn machine_outages_do_not_reduce_capacity() {
        let outages = OutageSchedule::from_windows(vec![(t(0), t(100))]);
        let f = FaultModel::none().with_outages(outages);
        assert_eq!(f.available_cpus(t(50), 64), 64, "outages gate starts only");
        assert!(!f.is_none());
        assert!(f.machine_outages().is_down(t(50)));
    }
}
