//! The names and units of every metric the benchmark reports. The root
//! `BENCHMARK.json` lists exactly these (a test holds the two together).

/// End-to-end metrics `(name, unit)`: what a user of either stack sees.
/// Every workload reports every one of them.
///
/// - `throughput_per_s`: simulated engine events per host second on the
///   simulation workloads, requests answered per second on the serving
///   workloads.
/// - `latency_p50_ms` / `latency_p90_ms`: the time one unit of waiting
///   takes: a trial (one whole figure run) on the simulation workloads,
///   a request on `serve_dataplane`, an NF lifecycle (`launch` written to
///   `teardown` answered) on `serve_churn`.
/// - `peak_rss_mib`: `VmHWM` of the process doing the work (this process
///   for the simulation workloads, the `snicd` child for the serving
///   ones).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)`, layer by layer in stack order. A
/// metric whose layer the traced workload never enters reads 0 there.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("trace.ictf.packets_per_s", "packets/s"),
    ("trace.phased.packets_per_s", "packets/s"),
    ("nf.regen.firewall.events_per_s", "events/s"),
    ("nf.regen.dpi.events_per_s", "events/s"),
    ("nf.regen.nat.events_per_s", "events/s"),
    ("nf.regen.lb.events_per_s", "events/s"),
    ("nf.regen.lpm.events_per_s", "events/s"),
    ("nf.regen.monitor.events_per_s", "events/s"),
    ("nf.build_s", "s"),
    ("nf.events_per_packet", "events/packet"),
    ("uarch.stream.streamed.events_per_s", "events/s"),
    ("uarch.stream.shared.events_per_s", "events/s"),
    ("uarch.engine.commodity.events_per_s", "events/s"),
    ("uarch.engine.snic.events_per_s", "events/s"),
    ("uarch.engine.l1hit.events_per_s", "events/s"),
    ("uarch.engine.l1miss.events_per_s", "events/s"),
    ("uarch.engine.sched32.events_per_s", "events/s"),
    ("uarch.engine.l1_miss_share", "share"),
    ("uarch.engine.l2_miss_share", "share"),
    ("uarch.engine.self_share", "share"),
    ("sim.shard_speedup", "x"),
    ("sim.shard_imbalance", "x"),
    ("sim.dispatch_us", "us"),
    ("bench.all_traces_s", "s"),
    ("bench.regen_share", "share"),
    ("bench.fill_calls", "count"),
    ("serve.protocol.parse_ns", "ns"),
    ("serve.protocol.render_ns", "ns"),
    ("serve.daemon.lines_per_s", "lines/s"),
    ("serve.daemon.ingest.send_us", "us"),
    ("serve.daemon.ingest.poll_us", "us"),
    ("serve.daemon.ingest.stats_us", "us"),
    ("serve.daemon.ingest.launch_us", "us"),
    ("serve.daemon.ingest.attest_us", "us"),
    ("serve.daemon.ingest.teardown_us", "us"),
    ("serve.daemon.ingest_p99_us", "us"),
    ("serve.daemon.self_us", "us"),
    ("serve.admission.shed_share", "share"),
    ("serve.admission.queue_depth_max", "count"),
    ("serve.snapshot.render_ms.6k", "ms"),
    ("serve.snapshot.render_ms.150k", "ms"),
    ("serve.snapshot.restore_lines_per_s", "lines/s"),
    ("serve.daemon.bytes_per_line", "B/line"),
    ("core.device.launch_us.4mib", "us"),
    ("core.device.launch_us.32mib", "us"),
    ("core.device.launch_us_per_mib", "us/MiB"),
    ("core.device.teardown_us.32mib", "us"),
    ("core.device.rx_ns", "ns"),
    ("core.device.poll_ns", "ns"),
    ("core.attest.respond_us", "us"),
    ("core.attest.accept_us", "us"),
    ("crypto.sha256.mib_per_s", "MiB/s"),
    ("crypto.rsa.sign_us", "us"),
    ("crypto.rsa.verify_us", "us"),
    ("crypto.dh.generate_us", "us"),
    ("mem.scrub.mib_per_s", "MiB/s"),
    ("snicd.io_us_per_req", "us"),
    ("snicd.journal_us_per_line", "us"),
    ("snicd.latency_p99_us", "us"),
    ("snicd.latency_max_us", "us"),
    ("snicd.boot_ms", "ms"),
    ("trace_overhead_share", "share"),
];

/// The unit of a metric of either list.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric '{name}' is not in the registry"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use snic_telemetry::{parse_json, Json};

    fn names_and_units(list: &Json) -> Vec<(String, String)> {
        list.as_arr()
            .expect("a list of metrics")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(
            names_and_units(doc.get("end_to_end").expect("end_to_end")),
            own(&END_TO_END)
        );
        assert_eq!(
            names_and_units(doc.get("per_layer").expect("per_layer")),
            own(&PER_LAYER)
        );
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_alphabet() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(
                name.len() <= 64 && unit.len() <= 16,
                "{name} / {unit} too long"
            );
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
