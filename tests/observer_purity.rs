//! Observability is a pure observer at preset scale.
//!
//! The same native-log prefix replayed with every instrument off, with the
//! default bundle on, and with the telemetry bus sampling at the default
//! cadence on top must schedule every job identically, and all three must
//! report bitwise-identical work counters. The driver's unit tests check
//! this on a toy machine; here it runs on each calibrated preset, where the
//! telemetry tick reads a running set of hundreds of jobs.

use interstitial_computing::interstitial::prelude::*;
use interstitial_computing::machine::{self, MachineConfig};
use interstitial_computing::obs::telemetry::{DEFAULT_CADENCE_S, DRIVER_SIGNALS};
use interstitial_computing::obs::{Obs, TelemetryBus};
use interstitial_computing::workload::traces::native_trace;
use interstitial_computing::workload::Job;
use std::sync::Arc;

/// The calibrated logs' generator seed (the log behind the golden traces).
const SEED: u64 = 20_030_901;
const JOBS: usize = 2_000;

fn replay(cfg: &MachineConfig, natives: &Arc<Vec<Job>>, observer: Obs) -> SimOutput {
    SimBuilder::new(cfg.clone())
        .natives_arc(Arc::clone(natives))
        .observer(observer)
        .build()
        .run()
}

fn schedule(out: &SimOutput) -> Vec<(u64, u64, u64)> {
    out.completed
        .iter()
        .map(|c| (c.job.id, c.start.as_secs(), c.finish.as_secs()))
        .collect()
}

#[test]
fn observers_change_neither_the_schedule_nor_the_work_on_any_preset() {
    for cfg in [
        machine::config::ross(),
        machine::config::blue_mountain(),
        machine::config::blue_pacific(),
    ] {
        let name = cfg.name;
        let mut natives = native_trace(&cfg, SEED);
        natives.truncate(JOBS);
        let natives = Arc::new(natives);
        let off = replay(&cfg, &natives, Obs::disabled());
        let on = replay(&cfg, &natives, Obs::enabled());
        let mut observer = Obs::enabled();
        observer.telemetry = TelemetryBus::enabled(DEFAULT_CADENCE_S, DRIVER_SIGNALS);
        let sampled = replay(&cfg, &natives, observer);

        assert_eq!(
            off.native_completed(),
            JOBS as u64,
            "{name}: prefix did not drain"
        );
        assert_eq!(
            schedule(&off),
            schedule(&on),
            "{name}: observability changed the schedule"
        );
        assert_eq!(
            schedule(&on),
            schedule(&sampled),
            "{name}: telemetry sampling changed the schedule"
        );
        assert_eq!(
            off.obs.work, on.obs.work,
            "{name}: the work counters depend on which instruments are on"
        );
        assert_eq!(
            on.obs.work, sampled.obs.work,
            "{name}: telemetry sampling perturbed the work counters"
        );
        assert!(
            !sampled.obs.telemetry.is_empty(),
            "{name}: the telemetry bus recorded no ticks"
        );
    }
}
