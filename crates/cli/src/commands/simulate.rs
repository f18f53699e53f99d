//! `interstitial simulate` — replay a log through a machine's scheduler,
//! optionally with an interstitial stream, and report the impact.

use crate::args::{machine_by_name, shape_spec, ArgError, Args};
use analysis::metrics::NativeImpact;
use analysis::tables::fmt_k;
use analysis::{ResilienceReport, Table};
use interstitial::policy::{Preemption, RecoveryPolicy};
use interstitial::prelude::*;
use machine::{FaultModel, FaultSpec};
use obs::Obs;
use simkit::time::SimTime;
use std::sync::Arc;
use workload::traces::native_trace;
use workload::{swf, Job};

/// Run the simulation described by the flags.
pub fn run(args: &Args) -> Result<String, ArgError> {
    args.check_flags(&[
        "machine",
        "seed",
        "shape",
        "mode",
        "cap",
        "preempt",
        "out",
        "trace",
        "metrics",
        "faults",
        "recovery",
        "resilience",
        "record-cycles",
        "telemetry",
        "cadence",
        "slo",
    ])?;
    // The interstitial stream's knobs mean nothing without a stream.
    for flag in ["mode", "cap", "preempt"] {
        if args.get(flag).is_some() && args.get("shape").is_none() {
            return Err(ArgError(format!("--{flag} requires --shape")));
        }
    }

    // Native log: an SWF positional, or a synthetic trace by seed. An SWF
    // header with MaxProcs can stand in for --machine.
    let swf_text = match args.positional.first() {
        Some(path) => Some(
            std::fs::read_to_string(path).map_err(|e| ArgError(format!("reading {path}: {e}")))?,
        ),
        None => None,
    };
    let machine = match args.get("machine") {
        Some(name) => machine_by_name(name)?,
        None => {
            let header = swf_text
                .as_deref()
                .map(swf::parse_header)
                .unwrap_or_default();
            let procs = header.max_procs.ok_or_else(|| {
                ArgError("missing --machine (and no MaxProcs in the SWF header to infer it)".into())
            })?;
            let mut m = machine_by_name(&format!("{procs}x1.0"))?;
            m.name = "from SWF header";
            m
        }
    };
    let natives: Arc<Vec<Job>> = Arc::new(match &swf_text {
        Some(text) => swf::parse(text, true).map_err(|e| ArgError(e.to_string()))?,
        None => native_trace(&machine, args.get_or("seed", 1)?),
    });
    if natives.is_empty() {
        return Err(ArgError("native log is empty".into()));
    }
    let horizon = natives
        .iter()
        .map(|j| j.submit)
        .max()
        .unwrap()
        .max(SimTime::from_days(1));

    // Fault injection: synthesize the per-node failure/repair timeline
    // once and thread the same model through both runs, so the
    // native-only and with-interstitial columns face identical faults.
    let faults = match args.get("faults") {
        None => None,
        Some(spec) => {
            let spec = FaultSpec::parse(spec).map_err(ArgError)?;
            Some(FaultModel::synthesize(&spec, machine.cpus, horizon))
        }
    };
    if args.get("resilience").is_some() && faults.is_none() {
        return Err(ArgError("--resilience requires --faults".into()));
    }

    // Recovery policy for evicted interstitial jobs. The default
    // (kill-restart) reproduces the legacy traces byte-for-byte.
    let recovery = match args.get("recovery") {
        None => RecoveryPolicy::default(),
        Some(spec) => RecoveryPolicy::parse(spec).map_err(ArgError)?,
    };

    // Online telemetry: a fixed-cadence sampling bus plus optional SLO
    // watchdog rules. Both are opt-in; --cadence and --slo only make sense
    // with a bus to drive.
    let telemetry_path = args.get("telemetry");
    let cadence = match args.get("cadence") {
        None => obs::telemetry::DEFAULT_CADENCE_S,
        Some(c) => {
            if telemetry_path.is_none() {
                return Err(ArgError("--cadence requires --telemetry".into()));
            }
            let secs: u64 = c
                .parse()
                .map_err(|_| ArgError(format!("bad --cadence {c:?} (want seconds)")))?;
            if secs == 0 {
                return Err(ArgError("--cadence must be at least 1 second".into()));
            }
            secs
        }
    };
    let slo = match args.get("slo") {
        None => None,
        Some(spec) => {
            if telemetry_path.is_none() {
                return Err(ArgError("--slo requires --telemetry".into()));
            }
            Some(obs::SloSpec::parse(spec).map_err(ArgError)?)
        }
    };

    // Observability rides on the interstitial run when a shape is given,
    // otherwise on the baseline.
    let record_path = args.get("record-cycles");
    let observe = args.get("trace").is_some()
        || args.get("metrics").is_some()
        || record_path.is_some()
        || telemetry_path.is_some();
    let shape_given = args.get("shape").is_some();
    // The recorder is opt-in on top of the full bundle: it needs the phase
    // profiler's nanos for attribution, and `--record-cycles` is an explicit
    // request to pay for the per-pass ring. The telemetry bus likewise.
    let observer = || {
        let mut o = Obs::enabled();
        if record_path.is_some() {
            o.recorder = obs::CycleRecorder::enabled();
        }
        if telemetry_path.is_some() {
            o.telemetry = obs::TelemetryBus::enabled(cadence, obs::telemetry::DRIVER_SIGNALS);
        }
        o
    };

    // Baseline (always) and, if a shape is given, the interstitial run.
    let mut baseline_builder = SimBuilder::new(machine.clone())
        .natives_arc(Arc::clone(&natives))
        .horizon(horizon)
        .recovery(recovery);
    if let Some(model) = &faults {
        baseline_builder = baseline_builder.faults(model.clone());
    }
    if observe && !shape_given {
        baseline_builder = baseline_builder.observer(observer());
        if let Some(spec) = &slo {
            baseline_builder = baseline_builder.slo(spec.clone());
        }
    }
    let baseline = baseline_builder.build().run();

    let mut out = String::new();
    let mut t = Table::new(
        format!(
            "simulation — {} ({} native jobs)",
            machine.name,
            natives.len()
        ),
        &["metric", "native only", "with interstitial"],
    );
    let base_impact = NativeImpact::of(&baseline.completed);

    let inter = match args.get("shape") {
        None => None,
        Some(spec) => {
            let (cpus, secs) = shape_spec(spec)?;
            let mode =
                match args.get("mode") {
                    None | Some("continual") => InterstitialMode::Continual,
                    Some(m) => match m.strip_prefix("project:") {
                        Some(start) => InterstitialMode::Project {
                            start: SimTime::from_secs(start.parse().map_err(|_| {
                                ArgError(format!("bad project start in --mode {m:?}"))
                            })?),
                        },
                        None => return Err(ArgError(format!("bad --mode {m:?}"))),
                    },
                };
            let mut policy = match args.get("cap") {
                Some(c) => {
                    let cap: f64 = c
                        .parse()
                        .map_err(|_| ArgError(format!("bad --cap {c:?}")))?;
                    if !(0.0..=1.0).contains(&cap) {
                        return Err(ArgError("--cap must be in [0,1]".into()));
                    }
                    InterstitialPolicy::capped(cap)
                }
                None => InterstitialPolicy::default(),
            };
            policy.preemption = match args.get("preempt") {
                None => Preemption::None,
                Some("kill") => Preemption::Kill,
                Some("checkpoint") => Preemption::Checkpoint,
                Some(p) => return Err(ArgError(format!("bad --preempt {p:?}"))),
            };
            let project = InterstitialProject::per_paper(u64::MAX / 2, cpus, secs);
            let mut b = SimBuilder::new(machine.clone())
                .natives_arc(Arc::clone(&natives))
                .horizon(horizon)
                .recovery(recovery)
                .interstitial(project, mode, policy);
            if let Some(model) = &faults {
                b = b.faults(model.clone());
            }
            if observe {
                b = b.observer(observer());
                if let Some(spec) = &slo {
                    b = b.slo(spec.clone());
                }
            }
            Some(b.build().run())
        }
    };

    type Cell<'a> = &'a dyn Fn(&SimOutput, &NativeImpact) -> String;
    let cell = |o: &SimOutput, f: Cell| {
        let i = NativeImpact::of(&o.completed);
        f(o, &i)
    };
    let rows: [(&str, Cell); 7] = [
        ("overall utilization", &|o, _| {
            format!("{:.3}", o.overall_utilization())
        }),
        ("native utilization", &|o, _| {
            format!("{:.3}", o.native_utilization())
        }),
        ("interstitial jobs", &|o, _| {
            o.interstitial_completed().to_string()
        }),
        ("interstitial killed", &|o, _| {
            o.faults.ledger.preempt_kills().to_string()
        }),
        ("native throughput", &|o, _| {
            o.native_throughput_in_window().to_string()
        }),
        ("native median wait (s)", &|_, i| fmt_k(i.all.median_wait)),
        ("5% largest median wait (s)", &|_, i| {
            fmt_k(i.largest.median_wait)
        }),
    ];
    for (label, f) in rows {
        let base_cell = cell(&baseline, f);
        let inter_cell = match &inter {
            Some(o) => cell(o, f),
            None => "—".to_string(),
        };
        t.row(&[label.to_string(), base_cell, inter_cell]);
    }
    if faults.is_some() {
        let fault_rows: [(&str, Cell); 4] = [
            ("node failures", &|o, _| o.faults.node_failures.to_string()),
            ("fault kills", &|o, _| o.faults.total_kills().to_string()),
            ("native requeues", &|o, _| {
                o.faults.native_requeues.to_string()
            }),
            ("interstitial retries", &|o, _| {
                o.faults.interstitial_retries.to_string()
            }),
        ];
        for (label, f) in fault_rows {
            let base_cell = cell(&baseline, f);
            let inter_cell = match &inter {
                Some(o) => cell(o, f),
                None => "—".to_string(),
            };
            t.row(&[label.to_string(), base_cell, inter_cell]);
        }
    }
    let _ = base_impact;
    out.push_str(&t.to_text());

    // The resilience panel describes the headline run (the interstitial
    // run when a shape is given, else the baseline).
    if faults.is_some() {
        let o = inter.as_ref().unwrap_or(&baseline);
        let report = ResilienceReport::from_run(
            &o.completed,
            &o.faults,
            &o.fault_model,
            machine.cpus,
            horizon,
        );
        let text = format!(
            "\n{}\n{}",
            report.table().to_text(),
            report.survival_table().to_text()
        );
        out.push_str(&text);
        if let Some(path) = args.get("resilience") {
            std::fs::write(path, text.trim_start())
                .map_err(|e| ArgError(format!("writing {path}: {e}")))?;
            out.push_str(&format!("\nwrote resilience report to {path}\n"));
        }
    }

    if let (Some(o), Some(path)) = (&inter, args.get("out")) {
        let text = swf::emit_completed(&o.completed, "interstitial simulation output");
        std::fs::write(path, text).map_err(|e| ArgError(format!("writing {path}: {e}")))?;
        out.push_str(&format!("\nwrote completed-job log to {path}\n"));
    }

    if observe {
        let observed = inter.as_ref().unwrap_or(&baseline);
        if let Some(path) = args.get("trace") {
            std::fs::write(path, observed.obs.trace.to_jsonl())
                .map_err(|e| ArgError(format!("writing {path}: {e}")))?;
            out.push_str(&format!(
                "\nwrote {} trace events to {path}\n",
                observed.obs.trace.recorded()
            ));
        }
        if let Some(path) = args.get("metrics") {
            let mut bundle = observed.obs.clone();
            NativeImpact::of(&observed.completed).export(&mut bundle.metrics);
            std::fs::write(path, bundle.run_report().to_json())
                .map_err(|e| ArgError(format!("writing {path}: {e}")))?;
            out.push_str(&format!("\nwrote metrics snapshot to {path}\n"));
        }
        if let Some(path) = record_path {
            let jsonl = observed
                .obs
                .recorder
                .to_jsonl(&observed.obs.profiler.snapshot());
            std::fs::write(path, jsonl).map_err(|e| ArgError(format!("writing {path}: {e}")))?;
            out.push_str(&format!(
                "\nwrote {} recorded cycles to {path} (ring retains {}, top-{} ledger)\n",
                observed.obs.recorder.cycles_seen(),
                observed.obs.recorder.ring().count(),
                observed.obs.recorder.top().len(),
            ));
        }
        if let Some(path) = telemetry_path {
            let bus = &observed.obs.telemetry;
            std::fs::write(path, bus.to_jsonl())
                .map_err(|e| ArgError(format!("writing {path}: {e}")))?;
            out.push_str(&format!(
                "\nwrote {} telemetry points to {path} (cadence {}s, {} annotations)\n",
                bus.len(),
                bus.effective_cadence_s(),
                bus.annotations().len(),
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn baseline_only_run() {
        let out = run(&parse(&["simulate", "--machine", "128x1.0", "--seed", "2"])).unwrap();
        assert!(out.contains("overall utilization"));
        assert!(out.contains("—"), "no interstitial column values");
    }

    #[test]
    fn interstitial_run_reports_jobs() {
        let out = run(&parse(&[
            "simulate",
            "--machine",
            "128x1.0",
            "--seed",
            "2",
            "--shape",
            "16x120",
        ]))
        .unwrap();
        // Interstitial column must contain a positive job count.
        let line = out
            .lines()
            .find(|l| l.starts_with("interstitial jobs"))
            .unwrap();
        let count: u64 = line.split_whitespace().last().unwrap().parse().unwrap();
        assert!(count > 0, "{out}");
    }

    #[test]
    fn preempt_and_cap_flags_work() {
        let out = run(&parse(&[
            "simulate",
            "--machine",
            "128x1.0",
            "--seed",
            "2",
            "--shape",
            "16x960",
            "--cap",
            "0.9",
            "--preempt",
            "kill",
        ]))
        .unwrap();
        assert!(out.contains("interstitial killed"));
    }

    /// The removed event queue selector is an unknown flag now. (The name
    /// is assembled so the removed spelling appears nowhere in the tree.)
    #[test]
    fn removed_event_queue_flag_is_unknown() {
        let flag = format!("--{}-queue", "event");
        let err = run(&parse(&["simulate", "--machine", "128x1.0", &flag, "heap"])).unwrap_err();
        assert!(err.0.starts_with(&format!("unknown flag {flag}")), "{err}");
    }

    #[test]
    fn bad_flags_are_clean_errors() {
        assert!(run(&parse(&["simulate"])).is_err(), "no machine");
        for (flag, value) in [
            ("--cap", "0.5"),
            ("--mode", "project:100"),
            ("--preempt", "kill"),
        ] {
            let err = run(&parse(&["simulate", "--machine", "ross", flag, value])).unwrap_err();
            assert_eq!(err.0, format!("{flag} requires --shape"));
        }
        assert!(run(&parse(&["simulate", "--machine", "ross", "--shape", "16"])).is_err());
        assert!(run(&parse(&[
            "simulate",
            "--machine",
            "ross",
            "--shape",
            "16x120",
            "--mode",
            "sometimes"
        ]))
        .is_err());
        assert!(run(&parse(&[
            "simulate",
            "--machine",
            "ross",
            "--shape",
            "16x120",
            "--cap",
            "1.5"
        ]))
        .is_err());
        assert!(run(&parse(&[
            "simulate",
            "--machine",
            "ross",
            "--shape",
            "16x120",
            "--preempt",
            "maybe"
        ]))
        .is_err());
    }

    #[test]
    fn faulted_run_prints_the_resilience_panel() {
        let dir = std::env::temp_dir().join("interstitial-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resilience.txt");
        let out = run(&parse(&[
            "simulate",
            "--machine",
            "128x1.0",
            "--seed",
            "2",
            "--shape",
            "16x120",
            "--faults",
            "mtbf=20000,mttr=2000,nodes=8,seed=7",
            "--resilience",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("node failures"), "{out}");
        assert!(out.contains("Resilience"), "{out}");
        assert!(out.contains("wrote resilience report"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("goodput CPU·s"), "{text}");
        assert!(text.contains("Execution survival vs runtime"), "{text}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn faulted_traces_stamp_schema_v2() {
        let dir = std::env::temp_dir().join("interstitial-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("faulted.jsonl");
        run(&parse(&[
            "simulate",
            "--machine",
            "128x1.0",
            "--seed",
            "2",
            "--faults",
            "mtbf=20000,mttr=2000,nodes=8,seed=7",
            "--trace",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        let jsonl = std::fs::read_to_string(&trace).unwrap();
        assert!(jsonl.starts_with("{\"schema\":2"), "{jsonl}");
        assert!(jsonl.contains("\"ev\":\"node_down\""));
        assert!(jsonl.contains("\"ev\":\"node_up\""));
        let _ = std::fs::remove_file(trace);
    }

    #[test]
    fn recovery_flag_selects_the_policy_and_v3_traces_stamp_correctly() {
        let dir = std::env::temp_dir().join("interstitial-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = |recovery: &str, trace: &str| {
            vec![
                "simulate".to_string(),
                "--machine".into(),
                "128x1.0".into(),
                "--seed".into(),
                "2".into(),
                "--shape".into(),
                "16x120".into(),
                "--faults".into(),
                "mtbf=20000,mttr=2000,nodes=8,seed=7".into(),
                "--recovery".into(),
                recovery.into(),
                "--trace".into(),
                trace.into(),
            ]
        };
        // Kill-restart emits no recovery events, so the trace stays schema 2.
        let kill = dir.join("kill.jsonl");
        let argv = base("kill", kill.to_str().unwrap());
        run(&Args::parse(argv).unwrap()).unwrap();
        let kill_bytes = std::fs::read_to_string(&kill).unwrap();
        assert!(kill_bytes.starts_with("{\"schema\":2"), "{kill_bytes}");
        assert!(!kill_bytes.contains("\"ev\":\"job_resumed\""));
        // Suspend-resume salvages victims and stamps schema 3.
        let susp = dir.join("suspend.jsonl");
        let argv = base("suspend", susp.to_str().unwrap());
        run(&Args::parse(argv).unwrap()).unwrap();
        let susp_bytes = std::fs::read_to_string(&susp).unwrap();
        assert!(susp_bytes.starts_with("{\"schema\":3"), "{susp_bytes}");
        assert!(susp_bytes.contains("\"ev\":\"job_suspended\""));
        assert!(susp_bytes.contains("\"ev\":\"job_resumed\""));
        // Checkpointing emits its own marker.
        let ckpt = dir.join("ckpt.jsonl");
        let argv = base("ckpt=30", ckpt.to_str().unwrap());
        run(&Args::parse(argv).unwrap()).unwrap();
        let ckpt_bytes = std::fs::read_to_string(&ckpt).unwrap();
        assert!(ckpt_bytes.starts_with("{\"schema\":3"), "{ckpt_bytes}");
        assert!(ckpt_bytes.contains("\"ev\":\"job_checkpointed\""));
        for p in [kill, susp, ckpt] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn recovery_flag_errors_are_clean() {
        for bad in ["sometimes", "ckpt=0", "ckpt=soon", "ckpt="] {
            let e = run(&parse(&[
                "simulate",
                "--machine",
                "128x1.0",
                "--recovery",
                bad,
            ]))
            .unwrap_err();
            assert!(e.0.contains("--recovery"), "{bad:?} → {}", e.0);
        }
    }

    #[test]
    fn fault_flag_errors_are_clean() {
        assert!(run(&parse(&[
            "simulate",
            "--machine",
            "128x1.0",
            "--faults",
            "mtbf=banana"
        ]))
        .is_err());
        assert!(
            run(&parse(&[
                "simulate",
                "--machine",
                "128x1.0",
                "--resilience",
                "/tmp/r.txt"
            ]))
            .is_err(),
            "--resilience without --faults"
        );
    }

    #[test]
    fn machine_inferred_from_swf_header() {
        let dir = std::env::temp_dir().join("interstitial-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("header.swf");
        let jobs = workload::traces::native_trace(&machine::config::ross(), 6);
        let body = swf::emit(&jobs[..300], "");
        std::fs::write(&path, format!("; MaxProcs: 1436\n{body}")).unwrap();
        let out = run(&parse(&["simulate", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("from SWF header"), "{out}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn trace_and_metrics_flags_write_parseable_artifacts() {
        let dir = std::env::temp_dir().join("interstitial-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("run.jsonl");
        let metrics = dir.join("run.json");
        let out = run(&parse(&[
            "simulate",
            "--machine",
            "128x1.0",
            "--seed",
            "2",
            "--shape",
            "16x120",
            "--trace",
            trace.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("trace events"), "{out}");
        assert!(out.contains("metrics snapshot"), "{out}");
        let jsonl = std::fs::read_to_string(&trace).unwrap();
        assert!(!jsonl.is_empty());
        let mut lines = jsonl.lines();
        let header = lines.next().unwrap();
        assert!(
            header.starts_with("{\"schema\":1") && header.contains("\"cpus\":128"),
            "{header}"
        );
        for line in lines {
            assert!(line.starts_with("{\"t\":") && line.ends_with('}'), "{line}");
        }
        // The stream must cover submits, starts, finishes and interstitial
        // placements (the acceptance-bar event classes).
        for needle in [
            "\"ev\":\"submit\"",
            "\"ev\":\"start\"",
            "\"ev\":\"finish\"",
            "\"class\":\"interstitial\"",
        ] {
            assert!(jsonl.contains(needle), "missing {needle}");
        }
        let report = std::fs::read_to_string(&metrics).unwrap();
        assert!(
            report.starts_with("{\"metrics\":{\"counters\":{"),
            "{report}"
        );
        assert!(report.contains("\"jobs.finished.native\""));
        assert!(report.contains("\"impact.all.median_wait_ms\""));
        assert!(report.contains("\"profile\""));
        let _ = std::fs::remove_file(trace);
        let _ = std::fs::remove_file(metrics);
    }

    #[test]
    fn baseline_trace_without_shape() {
        let dir = std::env::temp_dir().join("interstitial-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("baseline.jsonl");
        run(&parse(&[
            "simulate",
            "--machine",
            "128x1.0",
            "--seed",
            "2",
            "--trace",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        let jsonl = std::fs::read_to_string(&trace).unwrap();
        assert!(jsonl.contains("\"ev\":\"submit\""));
        assert!(!jsonl.contains("\"class\":\"interstitial\""));
        let _ = std::fs::remove_file(trace);
    }

    #[test]
    fn record_cycles_flag_writes_parseable_recorder_jsonl() {
        let dir = std::env::temp_dir().join("interstitial-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let rec = dir.join("cycles.jsonl");
        let out = run(&parse(&[
            "simulate",
            "--machine",
            "128x1.0",
            "--seed",
            "2",
            "--shape",
            "16x120",
            "--record-cycles",
            rec.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("recorded cycles"), "{out}");
        let jsonl = std::fs::read_to_string(&rec).unwrap();
        let dump = obs::recorder::RecorderDump::from_jsonl(&jsonl).unwrap();
        assert!(dump.cycles_seen > 0, "{out}");
        assert!(!dump.ring.is_empty());
        assert!(!dump.top.is_empty());
        assert!(
            dump.phases
                .iter()
                .any(|(name, _, _)| name == obs::profile::Phase::EventPump.name()),
            "phase totals ride along: {:?}",
            dump.phases
        );
        // The ledger is sorted by deterministic cost, most expensive first.
        assert!(dump.top.windows(2).all(|w| w[0].cost >= w[1].cost));
        let _ = std::fs::remove_file(rec);
    }

    #[test]
    fn recording_does_not_perturb_the_trace_stream() {
        let dir = std::env::temp_dir().join("interstitial-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let plain = dir.join("plain.jsonl");
        let recorded = dir.join("recorded.jsonl");
        let rec = dir.join("rec-cycles.jsonl");
        let base = [
            "simulate",
            "--machine",
            "128x1.0",
            "--seed",
            "2",
            "--shape",
            "16x120",
            "--trace",
        ];
        let mut with_trace = base.to_vec();
        with_trace.push(plain.to_str().unwrap());
        run(&parse(&with_trace)).unwrap();
        let mut with_rec = base.to_vec();
        let rec_s = rec.to_str().unwrap().to_string();
        with_rec.push(recorded.to_str().unwrap());
        with_rec.push("--record-cycles");
        with_rec.push(&rec_s);
        run(&parse(&with_rec)).unwrap();
        assert_eq!(
            std::fs::read_to_string(&plain).unwrap(),
            std::fs::read_to_string(&recorded).unwrap(),
            "flight recording must leave the trace bytes untouched"
        );
        for p in [plain, recorded, rec] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn telemetry_flag_writes_a_parseable_deterministic_export() {
        let dir = std::env::temp_dir().join("interstitial-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let run_once = |name: &str| {
            let path = dir.join(name);
            let out = run(&parse(&[
                "simulate",
                "--machine",
                "128x1.0",
                "--seed",
                "2",
                "--shape",
                "16x120",
                "--telemetry",
                path.to_str().unwrap(),
                "--cadence",
                "600",
            ]))
            .unwrap();
            assert!(out.contains("telemetry points"), "{out}");
            let bytes = std::fs::read_to_string(&path).unwrap();
            let _ = std::fs::remove_file(path);
            bytes
        };
        let a = run_once("telemetry-a.jsonl");
        let b = run_once("telemetry-b.jsonl");
        assert_eq!(a, b, "same seed must export byte-identical telemetry");
        let dump = obs::TelemetryDump::from_jsonl(&a).unwrap();
        assert!(!dump.ticks.is_empty(), "{a}");
        assert_eq!(dump.cadence_s, 600);
        assert_eq!(dump.machine, Some(("custom".to_string(), 128)));
        for signal in obs::telemetry::DRIVER_SIGNALS {
            assert!(
                dump.values(signal).is_some(),
                "export must carry the {signal} column"
            );
        }
    }

    #[test]
    fn telemetry_does_not_perturb_the_trace_stream() {
        let dir = std::env::temp_dir().join("interstitial-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let plain = dir.join("tel-plain.jsonl");
        let sampled = dir.join("tel-sampled.jsonl");
        let tel = dir.join("tel-series.jsonl");
        let base = [
            "simulate",
            "--machine",
            "128x1.0",
            "--seed",
            "2",
            "--shape",
            "16x120",
            "--trace",
        ];
        let mut with_trace = base.to_vec();
        with_trace.push(plain.to_str().unwrap());
        run(&parse(&with_trace)).unwrap();
        let mut with_tel = base.to_vec();
        let tel_s = tel.to_str().unwrap().to_string();
        with_tel.push(sampled.to_str().unwrap());
        with_tel.push("--telemetry");
        with_tel.push(&tel_s);
        run(&parse(&with_tel)).unwrap();
        assert_eq!(
            std::fs::read_to_string(&plain).unwrap(),
            std::fs::read_to_string(&sampled).unwrap(),
            "telemetry sampling must leave the trace bytes untouched"
        );
        for p in [plain, sampled, tel] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn slo_flag_stamps_breaches_and_flag_errors_are_clean() {
        let dir = std::env::temp_dir().join("interstitial-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let tel = dir.join("slo-series.jsonl");
        // The first tick samples the pre-event state at t=0 (util 0), so a
        // util floor is guaranteed to open breached.
        let out = run(&parse(&[
            "simulate",
            "--machine",
            "128x1.0",
            "--seed",
            "2",
            "--telemetry",
            tel.to_str().unwrap(),
            "--slo",
            "util>=0.999",
        ]))
        .unwrap();
        assert!(out.contains("annotations"), "{out}");
        let dump = obs::TelemetryDump::from_jsonl(&std::fs::read_to_string(&tel).unwrap()).unwrap();
        assert!(
            dump.annotations
                .iter()
                .any(|a| a.kind == "breach" && a.label == "util"),
            "{:?}",
            dump.annotations
        );
        let _ = std::fs::remove_file(tel);

        for bad in [
            vec!["simulate", "--machine", "ross", "--slo", "util>=0.9"],
            vec!["simulate", "--machine", "ross", "--cadence", "60"],
            vec![
                "simulate",
                "--machine",
                "ross",
                "--telemetry",
                "/tmp/t.jsonl",
                "--cadence",
                "0",
            ],
            vec![
                "simulate",
                "--machine",
                "ross",
                "--telemetry",
                "/tmp/t.jsonl",
                "--slo",
                "vibes<=3",
            ],
        ] {
            assert!(run(&parse(&bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn swf_round_trip_through_cli() {
        let dir = std::env::temp_dir().join("interstitial-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("in.swf");
        let out_path = dir.join("out.swf");
        let jobs = workload::traces::native_trace(&machine::config::ross(), 5);
        std::fs::write(&log, swf::emit(&jobs[..500], "subset")).unwrap();
        let out = run(&parse(&[
            "simulate",
            "--machine",
            "ross",
            log.to_str().unwrap(),
            "--shape",
            "32x120",
            "--out",
            out_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("wrote completed-job log"));
        let completed = swf::parse(&std::fs::read_to_string(&out_path).unwrap(), true).unwrap();
        assert!(completed.len() >= 500);
        let _ = std::fs::remove_file(log);
        let _ = std::fs::remove_file(out_path);
    }
}
