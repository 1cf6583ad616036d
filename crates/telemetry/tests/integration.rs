//! End-to-end tests of the telemetry crate: cross-thread span nesting,
//! percentile aggregation, JSONL round-trips, and level filtering.
//!
//! All tests mutate the process-global registry/sink state, so they share a
//! mutex and restore a clean slate before and after each body.

use hqnn_telemetry as telemetry;
use std::sync::Mutex;
use std::time::Duration;

fn with_clean_state(f: impl FnOnce()) {
    static GUARD: Mutex<()> = Mutex::new(());
    let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::reset();
    telemetry::set_level(telemetry::Level::Off);
    f();
    telemetry::reset();
}

#[test]
fn span_nesting_is_tracked_per_thread() {
    with_clean_state(|| {
        let _outer = telemetry::span("main");
        let workers: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    // A fresh thread starts with an empty span stack: its
                    // spans must NOT nest under the main thread's `main`.
                    let outer = telemetry::span("worker");
                    assert_eq!(outer.path(), "worker");
                    for _ in 0..3 {
                        let inner = telemetry::span("step");
                        assert_eq!(inner.path(), "worker/step");
                        std::thread::sleep(Duration::from_micros(50));
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }

        let snap = telemetry::snapshot();
        assert_eq!(snap.spans["worker"].count, 4);
        assert_eq!(snap.spans["worker/step"].count, 12);
        assert!(!snap.spans.contains_key("main/worker"));
        // Total time of a parent covers its children.
        assert!(snap.spans["worker"].total >= snap.spans["worker/step"].total);
    });
}

#[test]
fn percentiles_match_known_distribution_within_histogram_bound() {
    with_clean_state(|| {
        // 1..=1000 µs, shuffled order must not matter. Count/min/max/total
        // are exact; quantiles come from the log-linear histogram and may
        // overshoot the exact nearest-rank value by at most 1/64.
        for i in (1..=1000u64).rev() {
            telemetry::record_duration("dist", Duration::from_micros(i));
        }
        let stats = &telemetry::snapshot().spans["dist"];
        assert_eq!(stats.count, 1000);
        assert_eq!(stats.min, Duration::from_micros(1));
        assert_eq!(stats.max, Duration::from_micros(1000));
        assert_eq!(stats.total, Duration::from_micros(500_500));
        for (reported, exact_us) in [(stats.p50, 500u64), (stats.p95, 950), (stats.p99, 990)] {
            let reported_ns = reported.as_nanos() as u64;
            let exact_ns = exact_us * 1000;
            assert!(reported_ns >= exact_ns, "{reported_ns} < exact {exact_ns}");
            assert!(
                (reported_ns - exact_ns) as f64
                    <= exact_ns as f64 * telemetry::hist::RELATIVE_ERROR,
                "{reported_ns} outside error bound of exact {exact_ns}"
            );
        }
    });
}

#[test]
fn percentiles_stay_bounded_for_large_streams() {
    with_clean_state(|| {
        // 100_000 samples uniform in 0..100ms. The histogram keeps bounded
        // memory regardless of stream length, and its quantiles must track
        // the true quantiles within the 1/64 relative-error bound (loose
        // bands here because the stream itself is pseudo-random).
        for i in 0..100_000u64 {
            let us = i.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1) % 100_000;
            telemetry::record_duration("big", Duration::from_micros(us));
        }
        let stats = &telemetry::snapshot().spans["big"];
        assert_eq!(stats.count, 100_000);
        let p50_ms = stats.p50.as_secs_f64() * 1e3;
        let p95_ms = stats.p95.as_secs_f64() * 1e3;
        let p99_ms = stats.p99.as_secs_f64() * 1e3;
        assert!((48.0..52.0).contains(&p50_ms), "p50 {p50_ms}ms");
        assert!((93.0..97.0).contains(&p95_ms), "p95 {p95_ms}ms");
        assert!(p99_ms > 97.0, "p99 {p99_ms}ms");
        assert!(stats.p99 <= stats.max);
    });
}

#[test]
fn worker_thread_counters_reach_jsonl_on_flush() {
    with_clean_state(|| {
        // Regression test for flush ordering: a counter incremented on a
        // worker thread that is still alive at flush() time must appear in
        // the JSONL file — flush drains the shards *before* the sinks.
        let path =
            std::env::temp_dir().join(format!("hqnn-telemetry-flush-{}.jsonl", std::process::id()));
        telemetry::add_jsonl_sink(&path).unwrap();

        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            telemetry::counter("test.worker_ticks", 7);
            ready_tx.send(()).unwrap();
            // Hold the thread (and its undrained shard) open across flush.
            done_rx.recv().unwrap();
        });
        ready_rx.recv().unwrap();

        telemetry::flush();
        done_tx.send(()).unwrap();
        worker.join().unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let metrics_line = text
            .lines()
            .find(|l| l.contains("\"event\":\"telemetry.metrics\""))
            .expect("flush emits a telemetry.metrics event");
        let ev: telemetry::Event = serde_json::from_str(metrics_line).unwrap();
        assert_eq!(
            ev.fields.iter().find(|(k, _)| k == "test.worker_ticks"),
            Some(&("test.worker_ticks".to_string(), 7u64.into()))
        );
    });
}

#[test]
fn jsonl_sink_round_trips_through_serde_json() {
    with_clean_state(|| {
        let path =
            std::env::temp_dir().join(format!("hqnn-telemetry-test-{}.jsonl", std::process::id()));
        telemetry::add_jsonl_sink(&path).unwrap();

        telemetry::event(
            telemetry::Level::Info,
            "nn.epoch",
            &[
                ("epoch", 3u64.into()),
                ("train_loss", 0.25f64.into()),
                ("passed", true.into()),
                ("model", "C-8-6".into()),
                ("delta", (-2i64).into()),
            ],
        );
        telemetry::event(telemetry::Level::Error, "bare", &[]);
        telemetry::flush();

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);

        // Each line is a flat JSON object: ts_us/level/event + the fields.
        let ev: telemetry::Event = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(ev.level, telemetry::Level::Info);
        assert_eq!(ev.name, "nn.epoch");
        assert_eq!(ev.fields.len(), 5);
        assert_eq!(ev.fields[0], ("epoch".to_string(), 3u64.into()));
        assert_eq!(ev.fields[1], ("train_loss".to_string(), 0.25f64.into()));
        assert_eq!(ev.fields[2], ("passed".to_string(), true.into()));
        assert_eq!(ev.fields[3], ("model".to_string(), "C-8-6".into()));
        assert_eq!(ev.fields[4], ("delta".to_string(), (-2i64).into()));

        // Byte-level schema check on the bare event.
        let value: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        let entries = value.as_map("event").unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].0, "ts_us");
        assert_eq!(entries[1].0, "level");
        assert_eq!(entries[2].0, "event");

        // Re-serialising an event reproduces the exact line (f64 fields
        // survive bit-exactly thanks to shortest-roundtrip formatting).
        assert_eq!(serde_json::to_string(&ev).unwrap(), lines[0]);
    });
}

#[test]
fn memory_sink_sees_all_levels_but_console_filter_applies() {
    with_clean_state(|| {
        telemetry::set_level(telemetry::Level::Info);
        let mem = telemetry::add_memory_sink();
        telemetry::event(telemetry::Level::Info, "visible", &[]);
        telemetry::event(telemetry::Level::Trace, "hidden_from_console", &[]);
        // Recording sinks capture everything regardless of level.
        assert_eq!(mem.events().len(), 2);
        assert_eq!(mem.events_named("visible").len(), 1);
        assert_eq!(mem.events_named("hidden_from_console").len(), 1);
        assert!(!telemetry::enabled(telemetry::Level::Trace));
        assert!(telemetry::enabled(telemetry::Level::Info));
    });
}

#[test]
fn env_var_levels_parse() {
    // Pure parser test — no global state involved.
    for (s, expected) in [
        ("off", telemetry::Level::Off),
        ("error", telemetry::Level::Error),
        ("warn", telemetry::Level::Warn),
        ("info", telemetry::Level::Info),
        ("debug", telemetry::Level::Debug),
        ("trace", telemetry::Level::Trace),
        ("INFO", telemetry::Level::Info),
    ] {
        assert_eq!(s.parse::<telemetry::Level>().unwrap(), expected, "{s}");
    }
    assert!("verbose".parse::<telemetry::Level>().is_err());
}

#[test]
fn spans_emit_first_occurrence_events_below_debug() {
    with_clean_state(|| {
        telemetry::set_level(telemetry::Level::Info);
        let mem = telemetry::add_memory_sink();
        for _ in 0..5 {
            let _s = telemetry::span("qsim.adjoint");
        }
        // Below debug, only the first completion of a path emits an event;
        // the registry still aggregates every occurrence.
        let span_events = mem.events_named("span");
        assert_eq!(span_events.len(), 1);
        assert_eq!(
            span_events[0].fields[0],
            ("path".to_string(), "qsim.adjoint".into())
        );
        assert_eq!(telemetry::snapshot().spans["qsim.adjoint"].count, 5);

        // At debug, every completion emits.
        telemetry::set_level(telemetry::Level::Debug);
        mem.clear();
        for _ in 0..3 {
            let _s = telemetry::span("qsim.adjoint");
        }
        assert_eq!(mem.events_named("span").len(), 3);
    });
}

#[test]
fn chrome_trace_pairs_begin_and_end_events() {
    with_clean_state(|| {
        telemetry::trace::enable();
        {
            let _outer = telemetry::span("bench");
            for _ in 0..3 {
                let _inner = telemetry::span("iter");
            }
        }
        // A span still open at render time gets a synthetic closing event.
        let _open = telemetry::span("unclosed");

        let json = telemetry::trace::chrome_trace_json();
        let doc: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let top = doc.as_map("trace doc").unwrap();
        let events = match top.iter().find(|(k, _)| k == "traceEvents") {
            Some((_, serde_json::Value::Seq(events))) => events,
            other => panic!("missing traceEvents array: {other:?}"),
        };
        // bench + 3×iter + unclosed = 5 pairs.
        assert_eq!(events.len(), 10);

        // Begin/end counts must match per (tid, name), and per-thread
        // nesting must be well formed (no stack underflow, empty at end).
        let mut stacks: std::collections::HashMap<u64, Vec<String>> =
            std::collections::HashMap::new();
        let mut last_ts = 0u64;
        for ev in events {
            let fields = ev.as_map("event").unwrap();
            let get_str = |key: &str| match fields.iter().find(|(k, _)| k == key) {
                Some((_, serde_json::Value::Str(s))) => s.clone(),
                other => panic!("missing string {key}: {other:?}"),
            };
            let get_u64 = |key: &str| match fields.iter().find(|(k, _)| k == key) {
                Some((_, serde_json::Value::U64(v))) => *v,
                other => panic!("missing integer {key}: {other:?}"),
            };
            let name = get_str("name");
            let ph = get_str("ph");
            let ts = get_u64("ts");
            let tid = get_u64("tid");
            assert_eq!(get_u64("pid"), 1);
            assert!(ts >= last_ts, "events are time-ordered");
            last_ts = ts;
            let stack = stacks.entry(tid).or_default();
            match ph.as_str() {
                "B" => stack.push(name),
                "E" => assert_eq!(stack.pop().as_ref(), Some(&name), "E matches open B"),
                other => panic!("unexpected phase {other}"),
            }
        }
        for (tid, stack) in stacks {
            assert!(stack.is_empty(), "tid {tid} left open spans {stack:?}");
        }
        assert_eq!(telemetry::trace::dropped(), 0);
        drop(_open);
    });
}

#[test]
fn trace_recording_is_inert_until_enabled() {
    with_clean_state(|| {
        {
            let _s = telemetry::span("ignored");
        }
        let json = telemetry::trace::chrome_trace_json();
        assert!(json.contains("\"traceEvents\":[]"), "{json}");
    });
}

#[test]
fn collapsed_stacks_fold_paths_with_self_time() {
    with_clean_state(|| {
        telemetry::record_duration("repro", Duration::from_micros(500));
        telemetry::record_duration("repro/train", Duration::from_micros(300));
        let folded = telemetry::trace::collapsed_stacks();
        // Parent line carries self time = 500 - 300 µs.
        assert!(folded.contains("repro 200\n"), "{folded}");
        assert!(folded.contains("repro;train 300\n"), "{folded}");
    });
}

#[test]
fn report_renders_nested_tree_with_percentiles() {
    with_clean_state(|| {
        {
            let _a = telemetry::span("repro");
            for _ in 0..10 {
                let _b = telemetry::span("train");
                let _c = telemetry::span("epoch");
            }
        }
        telemetry::counter("qsim.gate_applies", 1234);
        telemetry::gauge("flops.winner", 2537.0);
        let report = telemetry::report();
        assert!(report.contains("repro"), "{report}");
        assert!(report.contains("  train"), "{report}");
        assert!(report.contains("    epoch"), "{report}");
        assert!(report.contains("p50"), "{report}");
        assert!(report.contains("p99"), "{report}");
        assert!(report.contains("qsim.gate_applies"), "{report}");
        assert!(report.contains("1234"), "{report}");
        assert!(report.contains("flops.winner"), "{report}");
    });
}
