//! Each layer timed in isolation, from outside, around its public calls.
//!
//! Every measurement repeats a small fixed piece of work for a time
//! slice and reports the median, so one noisy repeat does not set the
//! number. Counts marked *exact* in the README come from simulated
//! statistics or event totals and repeat bit for bit at a given seed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use snic_bench::colo::many_tenant_commodity;
use snic_bench::streams::{build_scaled, nf_trace_source};
use snic_bench::Scale;
use snic_core::attest::{FunctionAttestation, Verifier};
use snic_crypto::dh::{DhKeyPair, DhParams};
use snic_crypto::keys::SIM_KEY_BITS;
use snic_crypto::rsa::RsaKeyPair;
use snic_crypto::sha256::sha256;
use snic_mem::PhysMem;
use snic_nf::NfKind;
use snic_serve::protocol::{accept, codes, parse_request, reject};
use snic_serve::snapshot;
use snic_trace::{IctfConfig, IctfLikeTrace, PhaseSchedule, PhasedConfig, PhasedTrace};
use snic_types::{ByteSize, Packet};
use snic_uarch::config::MachineConfig;
use snic_uarch::engine::run_colocated;
use snic_uarch::stream::{Access, AccessKind, EventSource, SharedReplayStream, SyntheticStream};
use snic_uarch::{StreamedSource, TraceSource, STREAM_CHUNK};

use crate::serve::{
    bare_nic, churn_script, dataplane_script, launch_request, replay_in_process, send_packet,
    Script,
};
use crate::sim::ReplayGrid;
use crate::stats::{median, percentile};
use crate::Sizes;

/// The isolated per-layer metrics by name.
pub type Ledger = BTreeMap<&'static str, f64>;

/// Kinds with the name each has in the metric list.
pub const KIND_NAMES: [(NfKind, &str); 6] = [
    (NfKind::Firewall, "nf.regen.firewall.events_per_s"),
    (NfKind::Dpi, "nf.regen.dpi.events_per_s"),
    (NfKind::Nat, "nf.regen.nat.events_per_s"),
    (NfKind::LoadBalancer, "nf.regen.lb.events_per_s"),
    (NfKind::Lpm, "nf.regen.lpm.events_per_s"),
    (NfKind::Monitor, "nf.regen.monitor.events_per_s"),
];

/// Call `work` (which returns how many units it did) until `slice` has
/// passed, at least twice; the median seconds per unit over the calls.
fn secs_per_unit(slice: Duration, mut work: impl FnMut() -> u64) -> f64 {
    let mut samples = Vec::new();
    repeat_for(slice, || {
        let start = Instant::now();
        let units = work();
        samples.push(start.elapsed().as_secs_f64() / units.max(1) as f64);
    });
    median(&samples)
}

/// Call `step` until `slice` has passed, at least twice.
fn repeat_for(slice: Duration, mut step: impl FnMut()) {
    let begin = Instant::now();
    let mut calls = 0;
    while calls < 2 || begin.elapsed() < slice {
        step();
        calls += 1;
    }
}

fn blank() -> Access {
    Access {
        insns: 1,
        addr: 0,
        kind: AccessKind::Load,
    }
}

/// A recording held in memory behind the `TraceSource` interface, so a
/// `StreamedSource` can be timed with no generator cost under it.
struct MemorySource {
    events: std::sync::Arc<[Access]>,
    pos: usize,
}

impl TraceSource for MemorySource {
    fn fill(&mut self, out: &mut [Access]) -> usize {
        let n = out.len().min(self.events.len() - self.pos);
        out[..n].copy_from_slice(&self.events[self.pos..self.pos + n]);
        self.pos += n;
        n
    }

    fn rewind(&mut self) {
        self.pos = 0;
    }
}

/// Pull an engine-facing source dry through `next_slice`, as the engine
/// does, and return the events seen.
fn drain_slices(mut src: EventSource) -> u64 {
    let mut events = 0;
    let mut sum = 0u64;
    loop {
        let run = src.next_slice(256).expect("replay-backed source");
        if run.is_empty() {
            black_box(sum);
            return events;
        }
        events += run.len() as u64;
        sum = run.iter().fold(sum, |s, a| s.wrapping_add(a.addr));
    }
}

fn ictf_config(scale: &Scale, seed: u64) -> IctfConfig {
    IctfConfig {
        flows: scale.flows,
        theta: 1.1,
        mean_payload: 256,
        signature_rate: 0.02,
        patterns: snic_nf::dpi::synth_patterns(16, seed ^ 0x77),
        seed,
    }
}

/// `trace` and `nf`: packet generation and per-kind regeneration.
fn generation(ledger: &mut Ledger, scale: &Scale, seed: u64, slice: Duration) {
    const PACKETS: u64 = 2_000;
    let mut ictf = IctfLikeTrace::new(ictf_config(scale, seed));
    ledger.insert(
        "trace.ictf.packets_per_s",
        1.0 / secs_per_unit(slice, || {
            (0..PACKETS).for_each(|_| drop(black_box(ictf.next_packet())));
            PACKETS
        }),
    );
    let mut phased = PhasedTrace::new(PhasedConfig {
        base: ictf_config(scale, seed),
        schedule: PhaseSchedule::realistic(500_000),
    });
    ledger.insert(
        "trace.phased.packets_per_s",
        1.0 / secs_per_unit(slice, || {
            (0..PACKETS).for_each(|_| drop(black_box(phased.next_packet())));
            PACKETS
        }),
    );

    let mut buf = vec![blank(); STREAM_CHUNK];
    let mut events_per_packet = 0.0;
    for (kind, name) in KIND_NAMES {
        let mut src = nf_trace_source(kind, scale, seed);
        let (mut rates, mut pass_events) = (Vec::new(), 0u64);
        repeat_for(slice, || {
            // Only the fills are timed: the rewind rebuilds the NF, which
            // `nf.build_s` accounts for.
            src.rewind();
            pass_events = 0;
            let start = Instant::now();
            loop {
                let n = src.fill(&mut buf);
                if n == 0 {
                    break;
                }
                pass_events += n as u64;
            }
            rates.push(pass_events as f64 / start.elapsed().as_secs_f64());
        });
        black_box(&buf);
        ledger.insert(name, median(&rates));
        events_per_packet += pass_events as f64 / scale.packets as f64;
    }
    ledger.insert("nf.events_per_packet", events_per_packet);
    ledger.insert(
        "nf.build_s",
        secs_per_unit(slice, || {
            for kind in NfKind::ALL {
                black_box(build_scaled(kind, scale, seed));
            }
            1
        }),
    );
}

/// `uarch.stream` and `uarch.engine`.
fn engine(ledger: &mut Ledger, grid: &ReplayGrid, seed: u64, slice: Duration, div: u64) {
    let trace = grid.first_trace();
    ledger.insert(
        "uarch.stream.streamed.events_per_s",
        1.0 / secs_per_unit(slice, || {
            let src = MemorySource {
                events: trace.clone(),
                pos: 0,
            };
            drain_slices(StreamedSource::new(Box::new(src)).into())
        }),
    );
    ledger.insert(
        "uarch.stream.shared.events_per_s",
        1.0 / secs_per_unit(slice, || {
            drain_slices(SharedReplayStream::new(trace.clone()).into())
        }),
    );

    let (mut l1, mut l2) = ((0u64, 0u64), (0u64, 0u64));
    for (snic, name) in [
        (false, "uarch.engine.commodity.events_per_s"),
        (true, "uarch.engine.snic.events_per_s"),
    ] {
        let mut last = None;
        let per_event = secs_per_unit(slice, || {
            let cell = grid.run_cell(6, snic);
            let events = cell.events;
            last = Some(cell.outcome);
            events
        });
        ledger.insert(name, 1.0 / per_event);
        for nf in &last.expect("at least two runs").nfs {
            l1 = (l1.0 + nf.l1_misses, l1.1 + nf.l1_hits + nf.l1_misses);
            l2 = (l2.0 + nf.l2_misses, l2.1 + nf.l2_hits + nf.l2_misses);
        }
    }
    ledger.insert(
        "uarch.engine.l1_miss_share",
        l1.0 as f64 / l1.1.max(1) as f64,
    );
    ledger.insert(
        "uarch.engine.l2_miss_share",
        l2.0 as f64 / l2.1.max(1) as f64,
    );

    let synthetic = |working_set: u64, streams: usize, limit: u64| -> Vec<EventSource> {
        (0..streams)
            .map(|i| {
                SyntheticStream::new(working_set, 4, 4, limit, seed.wrapping_add(i as u64)).into()
            })
            .collect()
    };
    let solo = MachineConfig::commodity(1, 256 << 10);
    let limit = 2_000_000 / div;
    ledger.insert(
        "uarch.engine.l1hit.events_per_s",
        1.0 / secs_per_unit(slice, || {
            black_box(run_colocated(&solo, synthetic(16 << 10, 1, limit)));
            limit
        }),
    );
    ledger.insert(
        "uarch.engine.l1miss.events_per_s",
        1.0 / secs_per_unit(slice, || {
            black_box(run_colocated(&solo, synthetic(64 << 20, 1, limit)));
            limit
        }),
    );
    let wide = many_tenant_commodity(32, 4 << 20);
    let each = limit / 32;
    ledger.insert(
        "uarch.engine.sched32.events_per_s",
        1.0 / secs_per_unit(slice, || {
            black_box(run_colocated(&wide, synthetic(64 << 20, 32, each)));
            32 * each
        }),
    );
}

/// `sim.dispatch_us`: what handing 64 no-op items to the worker pool
/// costs.
fn dispatch(ledger: &mut Ledger, slice: Duration) {
    ledger.insert(
        "sim.dispatch_us",
        1e6 * secs_per_unit(slice, || {
            black_box(snic_sim::par_map((0..64u64).collect(), |i| i));
            1
        }),
    );
}

/// `serve.protocol`.
fn protocol(ledger: &mut Ledger, dataplane: &Script, churn: &Script, slice: Duration) -> f64 {
    let lines: Vec<&String> = dataplane
        .lines
        .iter()
        .take(8_000)
        .chain(churn.lines.iter().take(800))
        .collect();
    ledger.insert(
        "serve.protocol.parse_ns",
        1e9 * secs_per_unit(slice, || {
            for l in &lines {
                black_box(parse_request(l).expect("generated lines parse"));
            }
            lines.len() as u64
        }),
    );
    ledger.insert(
        "serve.protocol.render_ns",
        1e9 * secs_per_unit(slice, || {
            for id in 0..1_000u64 {
                black_box(accept(id, "t1", "send", &[("delivered", "4".to_string())]));
                black_box(reject(
                    id,
                    "t1",
                    "send",
                    codes::RATE_LIMITED,
                    "token bucket empty (burst 6)",
                ));
            }
            2_000
        }),
    );
    let send = dataplane
        .lines
        .iter()
        .zip(&dataplane.ops)
        .find(|(_, op)| op.verb() == "send")
        .map(|(l, _)| l)
        .expect("the mix holds sends");
    1e6 * secs_per_unit(slice, || {
        for _ in 0..1_000 {
            black_box(parse_request(send).expect("parses"));
        }
        1_000
    })
}

fn verb_p50(script: &Script, ingest_us: &[f64], verb: &str) -> f64 {
    let samples: Vec<f64> = script.ops[script.setup_len..]
        .iter()
        .zip(ingest_us)
        .filter(|(op, _)| op.verb() == verb)
        .map(|(_, us)| *us)
        .collect();
    median(&samples)
}

/// `serve.daemon`, `serve.admission`, `serve.snapshot`: one in-process
/// replay of the `serve_dataplane` lines and a short one of the
/// `serve_churn` lines.
fn daemon(ledger: &mut Ledger, dataplane: &Script, churn: &Script, slice: Duration) {
    let rss_before = crate::host::proc_status_mib("self", "VmRSS:").unwrap_or(0.0);
    let dp = replay_in_process(dataplane);
    let rss_after = crate::host::proc_status_mib("self", "VmRSS:").unwrap_or(0.0);
    let lines = dataplane.lines.len() as f64;
    ledger.insert(
        "serve.daemon.lines_per_s",
        dp.ingest_us.len() as f64 / dp.secs,
    );
    ledger.insert(
        "serve.daemon.bytes_per_line",
        (rss_after - rss_before).max(0.0) * 1_048_576.0 / lines,
    );
    for (verb, name) in [
        ("send", "serve.daemon.ingest.send_us"),
        ("poll", "serve.daemon.ingest.poll_us"),
        ("stats", "serve.daemon.ingest.stats_us"),
    ] {
        ledger.insert(name, verb_p50(dataplane, &dp.ingest_us, verb));
    }
    ledger.insert(
        "serve.daemon.ingest_p99_us",
        percentile(&dp.ingest_us, 99.0),
    );

    let ch = replay_in_process(churn);
    for (verb, name) in [
        ("launch", "serve.daemon.ingest.launch_us"),
        ("attest", "serve.daemon.ingest.attest_us"),
        ("teardown", "serve.daemon.ingest.teardown_us"),
    ] {
        ledger.insert(name, verb_p50(churn, &ch.ingest_us, verb));
    }
    let submitted = (dataplane.lines.len() + churn.lines.len()) as f64;
    ledger.insert(
        "serve.admission.shed_share",
        (dp.shed_share() * lines + ch.shed_share() * churn.lines.len() as f64) / submitted,
    );
    ledger.insert(
        "serve.admission.queue_depth_max",
        f64::from(dp.queue_depth_max().max(ch.queue_depth_max())),
    );

    let mut image = String::new();
    ledger.insert(
        "serve.snapshot.render_ms.150k",
        1e3 * secs_per_unit(slice, || {
            image = snapshot::render_image(&dp.daemon);
            1
        }),
    );
    let start = Instant::now();
    let (restored, _) = snapshot::restore(&image).expect("a fresh image restores");
    ledger.insert(
        "serve.snapshot.restore_lines_per_s",
        restored.history().len() as f64 / start.elapsed().as_secs_f64(),
    );
    drop(restored);
    let short = Script {
        lines: dataplane.lines[..dataplane.lines.len().min(6_000)].to_vec(),
        ops: dataplane.ops[..dataplane.lines.len().min(6_000)].to_vec(),
        ..dataplane.clone()
    };
    let six_k = replay_in_process(&short);
    ledger.insert(
        "serve.snapshot.render_ms.6k",
        1e3 * secs_per_unit(slice, || {
            black_box(snapshot::render_image(&six_k.daemon));
            1
        }),
    );
}

/// `core.device`, `core.attest`, `crypto`, `mem`: the bare device and the
/// primitives under it. Returns `core.device.rx_ns`.
fn device(ledger: &mut Ledger, seed: u64, slice: Duration) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let (vendor, mut nic) = bare_nic(&mut rng, seed);

    let mut launch_teardown = |mib: u64| -> (f64, f64) {
        let (mut up, mut down) = (Vec::new(), Vec::new());
        repeat_for(slice, || {
            let start = Instant::now();
            let receipt = nic
                .nf_launch(launch_request(0, mib, None))
                .expect("launch on an empty device");
            up.push(start.elapsed().as_secs_f64() * 1e6);
            let start = Instant::now();
            nic.nf_teardown(receipt.nf_id).expect("teardown");
            down.push(start.elapsed().as_secs_f64() * 1e6);
        });
        (median(&up), median(&down))
    };
    let (up4, _) = launch_teardown(4);
    let (up32, down32) = launch_teardown(32);
    ledger.insert("core.device.launch_us.4mib", up4);
    ledger.insert("core.device.launch_us.32mib", up32);
    ledger.insert("core.device.launch_us_per_mib", (up32 - up4) / 28.0);
    ledger.insert("core.device.teardown_us.32mib", down32);

    let nf = nic
        .nf_launch(launch_request(0, 8, Some(7_000)))
        .expect("launch")
        .nf_id;
    let packets: Vec<Packet> = (1..=256).map(|seq| send_packet(seq, 7_000)).collect();
    let (mut rx, mut poll) = (Vec::new(), Vec::new());
    repeat_for(slice, || {
        let start = Instant::now();
        for p in &packets {
            black_box(nic.rx_packet(p).expect("rx"));
        }
        rx.push(start.elapsed().as_secs_f64() * 1e9 / packets.len() as f64);
        let start = Instant::now();
        let mut polled = 0u64;
        while nic.poll_packet(nf).expect("poll").is_some() {
            polled += 1;
        }
        // The final empty poll is one more call.
        poll.push(start.elapsed().as_secs_f64() * 1e9 / (polled + 1) as f64);
    });
    let rx_ns = median(&rx);
    ledger.insert("core.device.rx_ns", rx_ns);
    ledger.insert("core.device.poll_ns", median(&poll));

    let params = DhParams::tiny_test_group();
    let measurement = nic.measurement_of(nf).expect("live NF");
    let (mut respond, mut accept_us) = (Vec::new(), Vec::new());
    repeat_for(slice, || {
        let mut verifier = Verifier::hello(&mut rng);
        let start = Instant::now();
        let f = FunctionAttestation::respond(&mut rng, &mut nic, nf, &params, verifier.nonce)
            .expect("respond");
        respond.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        black_box(
            verifier
                .accept(&mut rng, vendor.public(), &measurement, &f.quote)
                .expect("accept"),
        );
        accept_us.push(start.elapsed().as_secs_f64() * 1e6);
    });
    ledger.insert("core.attest.respond_us", median(&respond));
    ledger.insert("core.attest.accept_us", median(&accept_us));

    let mib = vec![0x5au8; 1 << 20];
    ledger.insert(
        "crypto.sha256.mib_per_s",
        1.0 / secs_per_unit(slice, || {
            black_box(sha256(black_box(&mib)));
            1
        }),
    );
    let key = RsaKeyPair::generate(&mut rng, SIM_KEY_BITS);
    let message = b"measurement || verdict || transcript";
    let mut signature = key.sign(message);
    ledger.insert(
        "crypto.rsa.sign_us",
        1e6 * secs_per_unit(slice, || {
            signature = key.sign(black_box(message));
            1
        }),
    );
    ledger.insert(
        "crypto.rsa.verify_us",
        1e6 * secs_per_unit(slice, || {
            assert!(key.public.verify(black_box(message), &signature));
            1
        }),
    );
    ledger.insert(
        "crypto.dh.generate_us",
        1e6 * secs_per_unit(slice, || {
            black_box(DhKeyPair::generate(&mut rng, &params));
            1
        }),
    );

    const SCRUB_MIB: u64 = 8;
    let mut mem = PhysMem::new(ByteSize::mib(64));
    let mut scrub = Vec::new();
    repeat_for(slice, || {
        for m in 0..SCRUB_MIB {
            mem.write(m << 20, &mib);
        }
        let start = Instant::now();
        mem.scrub(0, SCRUB_MIB << 20);
        scrub.push(SCRUB_MIB as f64 / start.elapsed().as_secs_f64());
    });
    ledger.insert("mem.scrub.mib_per_s", median(&scrub));
    rx_ns
}

/// Measure every isolated layer. `grid` is the replay grid at the run's
/// seed.
pub fn measure(sizes: &Sizes, seed: u64, slice: Duration, grid: &ReplayGrid) -> Ledger {
    let mut ledger = Ledger::new();
    generation(&mut ledger, &sizes.scale, seed, slice);
    engine(&mut ledger, grid, seed, slice, sizes.div);
    dispatch(&mut ledger, slice);
    // Three recordings, not one: a recording that has to fault in fresh
    // pages takes about three times as long as one that reuses them.
    ledger.insert(
        "bench.all_traces_s",
        median(
            &(0..3)
                .map(|_| {
                    let start = Instant::now();
                    black_box(ReplayGrid::record_uncached(&sizes.scale, seed));
                    start.elapsed().as_secs_f64()
                })
                .collect::<Vec<f64>>(),
        ),
    );
    let dataplane = dataplane_script(seed, sizes.dataplane_requests);
    let churn = churn_script(seed, (sizes.churn_lifecycles / 15).max(8));
    let parse_send_us = protocol(&mut ledger, &dataplane, &churn, slice);
    daemon(&mut ledger, &dataplane, &churn, slice);
    let rx_ns = device(&mut ledger, seed, slice);
    // What the daemon adds to a `send` beyond parsing it and the four
    // bare-device deliveries it asks for.
    ledger.insert(
        "serve.daemon.self_us",
        ledger["serve.daemon.ingest.send_us"] - parse_send_us - 4.0 * rx_ns / 1e3,
    );
    ledger
}
