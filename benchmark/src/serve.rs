//! The two serving-stack workloads, driven through the real `snicd`
//! binary over its Unix socket, with an in-process `Daemon::ingest`
//! replay of the same lines as the correctness oracle.
//!
//! - `serve_dataplane`: 4 tenants, fixed 6 `send` : 1 `poll` : 1 `stats`
//!   mix, one connection, 16 requests in flight.
//! - `serve_churn`: NF lifecycles `launch` -> `attest` -> `stats` ->
//!   `teardown` with a write-ahead journal, one request at a time.

use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use snic_core::attest::{FunctionAttestation, Verifier};
use snic_core::config::{NicConfig, NicMode};
use snic_core::device::SmartNic;
use snic_core::instr::{LaunchRequest, NfImage};
use snic_crypto::dh::DhParams;
use snic_crypto::keys::VendorCa;
use snic_crypto::sha256::sha256;
use snic_faults::ServeEventKind;
use snic_pktio::rules::{RuleMatch, SwitchRule};
use snic_serve::daemon::{Daemon, DaemonConfig};
use snic_serve::protocol::parse_request;
use snic_types::packet::PacketBuilder;
use snic_types::{ByteSize, CoreId, NfId, Packet, Protocol};

use crate::span::Tracer;

/// Tenants of both serving workloads.
pub const TENANTS: usize = 4;
/// Requests `serve_dataplane` keeps in flight.
pub const WINDOW: usize = 16;
/// Packets one `send` request delivers.
pub const SEND_COUNT: u32 = 4;
/// A `snapshot` op follows every this-many lifecycles of `serve_churn`.
pub const SNAPSHOT_EVERY: usize = 250;
/// How long a connect, read or write may take before the trial fails.
pub const IO_TIMEOUT: Duration = Duration::from_secs(20);
/// Where socket, journal and trace files go (relative to the checkout
/// root, which keeps the socket path far below the 108-byte limit).
pub const OUT_DIR: &str = "benchmark/out";

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn shuffle<T>(items: &mut [T], rng: &mut u64) {
    for i in (1..items.len()).rev() {
        items.swap(i, (splitmix(rng) % (i as u64 + 1)) as usize);
    }
}

/// The request lines of one trial: a pure function of the seed and the
/// size.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// Every line, set-up first.
    pub lines: Vec<String>,
    /// What each line asks for.
    pub ops: Vec<Op>,
    /// How many leading lines are set-up (sent before the clock starts).
    pub setup_len: usize,
    /// Index of the `launch` line of each NF lifecycle; the lifecycle
    /// ends with the line three after it (`teardown`). Empty for the
    /// data-plane script.
    pub lifecycles: Vec<usize>,
}

/// One request of a script, in the form the bare-device mirror applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `register` a tenant.
    Register { tenant: usize },
    /// `launch` the tenant's NF with `mem` MiB, optionally owning `port`.
    Launch {
        tenant: usize,
        mem: u64,
        port: Option<u16>,
    },
    /// `send` four packets to `port`.
    Send { tenant: usize, port: u16 },
    /// `poll` the tenant's NF dry.
    Poll { tenant: usize },
    /// `stats` of the tenant's NF.
    Stats { tenant: usize },
    /// `attest` the tenant's NF.
    Attest { tenant: usize },
    /// `teardown` the tenant's NF.
    Teardown { tenant: usize },
    /// `snapshot` the daemon.
    Snapshot,
}

impl Op {
    /// The protocol verb.
    pub fn verb(&self) -> &'static str {
        match self {
            Op::Register { .. } => "register",
            Op::Launch { .. } => "launch",
            Op::Send { .. } => "send",
            Op::Poll { .. } => "poll",
            Op::Stats { .. } => "stats",
            Op::Attest { .. } => "attest",
            Op::Teardown { .. } => "teardown",
            Op::Snapshot => "snapshot",
        }
    }

    fn line(&self, id: usize) -> String {
        let (tenant, extra) = match *self {
            Op::Snapshot => return format!("{{\"op\":\"snapshot\",\"id\":{id}}}"),
            Op::Register { tenant } => (tenant, String::new()),
            Op::Launch { tenant, mem, port } => {
                let port = port.map_or(String::new(), |p| format!(",\"port\":{p}"));
                (tenant, format!(",\"name\":\"nf\",\"mem\":{mem}{port}"))
            }
            Op::Send { tenant, port } => {
                (tenant, format!(",\"count\":{SEND_COUNT},\"port\":{port}"))
            }
            Op::Poll { tenant }
            | Op::Stats { tenant }
            | Op::Attest { tenant }
            | Op::Teardown { tenant } => (tenant, ",\"name\":\"nf\"".to_string()),
        };
        format!(
            "{{\"op\":\"{}\",\"tenant\":\"t{tenant}\",\"id\":{id}{extra}}}",
            self.verb()
        )
    }
}

impl Script {
    fn push(&mut self, op: Op) {
        self.lines.push(op.line(self.lines.len() + 1));
        self.ops.push(op);
    }

    fn registered() -> Script {
        let mut s = Script {
            lines: Vec::new(),
            ops: Vec::new(),
            setup_len: 0,
            lifecycles: Vec::new(),
        };
        for tenant in 0..TENANTS {
            s.push(Op::Register { tenant });
        }
        s
    }

    /// The measured requests (everything after set-up).
    pub fn requests(&self) -> &[String] {
        &self.lines[self.setup_len..]
    }
}

/// `serve_dataplane`: each tenant registers and launches one NF on its
/// own port; then `requests` requests, tenants round-robin, every block
/// of eight holding six `send`, one `poll` and one `stats` in a seeded
/// order.
pub fn dataplane_script(seed: u64, requests: usize) -> Script {
    let mut rng = seed ^ 0xda7a_91a2_e000_0001;
    let base_port = 2_000 + (splitmix(&mut rng) % 30_000) as u16;
    let mut s = Script::registered();
    for tenant in 0..TENANTS {
        s.push(Op::Launch {
            tenant,
            mem: 8,
            port: Some(base_port + tenant as u16),
        });
    }
    s.setup_len = s.lines.len();
    let mut block = [
        "send", "send", "send", "send", "send", "send", "poll", "stats",
    ];
    for i in 0..requests {
        if i % block.len() == 0 {
            shuffle(&mut block, &mut rng);
        }
        let tenant = i % TENANTS;
        s.push(match block[i % block.len()] {
            "send" => Op::Send {
                tenant,
                port: base_port + tenant as u16,
            },
            "poll" => Op::Poll { tenant },
            _ => Op::Stats { tenant },
        });
    }
    s
}

/// `serve_churn`: `lifecycles` NF lifecycles, tenants round-robin, memory
/// cycling through 4, 8, ..., 32 MiB in a seeded order per block of
/// eight, and a `snapshot` op after every [`SNAPSHOT_EVERY`]th lifecycle.
pub fn churn_script(seed: u64, lifecycles: usize) -> Script {
    let mut rng = seed ^ 0xc4c4_0000_0000_0002;
    let mut s = Script::registered();
    s.setup_len = s.lines.len();
    let mut mems = [4, 8, 12, 16, 20, 24, 28, 32];
    for k in 0..lifecycles {
        if k % mems.len() == 0 {
            shuffle(&mut mems, &mut rng);
        }
        let tenant = k % TENANTS;
        s.lifecycles.push(s.lines.len());
        s.push(Op::Launch {
            tenant,
            mem: mems[k % mems.len()],
            port: None,
        });
        s.push(Op::Attest { tenant });
        s.push(Op::Stats { tenant });
        s.push(Op::Teardown { tenant });
        if (k + 1) % SNAPSHOT_EVERY == 0 {
            s.push(Op::Snapshot);
        }
    }
    s
}

/// Whether a response line reports success.
pub fn response_ok(line: &str) -> bool {
    line.contains(",\"ok\":true")
}

// ------------------------------------------------------------------
// In-process oracle
// ------------------------------------------------------------------

/// The same lines fed to a `Daemon` inside this process.
pub struct InProcess {
    /// The daemon after the last line.
    pub daemon: Daemon,
    /// SHA-256 of the response stream (each response plus a newline).
    pub digest: [u8; 32],
    /// Lines that did not produce exactly one successful response.
    pub failed: u64,
    /// Seconds spent in `Daemon::ingest` over the measured requests.
    pub secs: f64,
    /// `Daemon::ingest` time of each measured request, microseconds.
    pub ingest_us: Vec<f64>,
}

/// Replay a script through `Daemon::ingest`. `snicd` is a pure function
/// of its configuration and input, so the response stream of a healthy
/// socket trial equals this one byte for byte.
pub fn replay_in_process(script: &Script) -> InProcess {
    let mut daemon = Daemon::new(DaemonConfig::default());
    let mut stream = Vec::with_capacity(script.lines.len() * 64);
    let mut failed = 0;
    let mut ingest_us = Vec::with_capacity(script.requests().len());
    for (i, line) in script.lines.iter().enumerate() {
        let start = Instant::now();
        let responses = daemon.ingest(line);
        if i >= script.setup_len {
            ingest_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        if responses.len() != 1 || !response_ok(&responses[0]) {
            failed += 1;
        }
        for r in &responses {
            stream.extend_from_slice(r.as_bytes());
            stream.push(b'\n');
        }
    }
    InProcess {
        daemon,
        digest: sha256(&stream),
        failed,
        secs: ingest_us.iter().sum::<f64>() / 1e6,
        ingest_us,
    }
}

impl InProcess {
    /// `SERVE-*` admission rejections over requests submitted, summed
    /// over tenants.
    pub fn shed_share(&self) -> f64 {
        let (mut shed, mut submitted) = (0, 0);
        for t in self.daemon.tenant_names() {
            let stats = self.daemon.tenant_stats(&t).expect("named tenant");
            shed += stats.shed;
            submitted += stats.submitted;
        }
        shed as f64 / submitted.max(1) as f64
    }

    /// Deepest a tenant queue got, read from the admission transcript
    /// (the depth right after each request was queued).
    pub fn queue_depth_max(&self) -> u32 {
        self.daemon
            .transcript()
            .iter()
            .filter_map(|r| match r.kind {
                ServeEventKind::Admitted { depth, .. } => Some(depth),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }
}

// ------------------------------------------------------------------
// Bare-device mirror and the traced in-process replay
// ------------------------------------------------------------------

/// The vendor CA and device a daemon with `seed` boots, with nothing
/// around them.
pub fn bare_nic(rng: &mut StdRng, seed: u64) -> (VendorCa, SmartNic) {
    let vendor = VendorCa::new(rng);
    let mut cfg = NicConfig::small(NicMode::Snic);
    cfg.seed = seed;
    let nic = SmartNic::new(cfg, &vendor);
    (vendor, nic)
}

/// The launch the daemon issues for `launch` with `mem` MiB on the
/// tenant's core, owning `port` if given.
pub fn launch_request(tenant: usize, mem: u64, port: Option<u16>) -> LaunchRequest {
    let image = NfImage {
        code: format!("t{tenant}/nf").into_bytes(),
        config: vec![],
    };
    let mut req = LaunchRequest::minimal(CoreId(tenant as u16), ByteSize::mib(mem), image);
    if let Some(p) = port {
        req.rules.push(SwitchRule {
            dst_port: RuleMatch::Exact(p),
            priority: 10,
            ..SwitchRule::any(NfId(0))
        });
    }
    req
}

/// The `seq`-th packet a `send` to `port` injects, as the daemon builds it.
pub fn send_packet(seq: u32, port: u16) -> Packet {
    PacketBuilder::new(
        0x0a00_0000 + seq,
        0xc633_0001,
        Protocol::Tcp,
        (1024 + seq % 60_000) as u16,
        port,
    )
    .payload(b"snicd".to_vec())
    .build()
}

/// A bare `SmartNic` that performs the device or crypto call matching
/// each request, with no protocol, admission or transcript around it.
pub struct BareDevice {
    vendor: VendorCa,
    nic: SmartNic,
    nfs: [Option<NfId>; TENANTS],
    packet_seq: u32,
    rng: StdRng,
}

impl BareDevice {
    /// The device `Daemon::new` builds for the default configuration.
    pub fn new() -> BareDevice {
        let seed = DaemonConfig::default().seed;
        let mut rng = StdRng::seed_from_u64(seed);
        let (vendor, nic) = bare_nic(&mut rng, seed);
        BareDevice {
            vendor,
            nic,
            nfs: [None; TENANTS],
            packet_seq: 0,
            rng,
        }
    }

    fn nf(&self, tenant: usize) -> NfId {
        self.nfs[tenant].expect("scripts use an NF only between its launch and teardown")
    }

    /// Perform the call under `op`; `false` when the verb has none
    /// (`register` and `snapshot` never reach the device).
    pub fn apply(&mut self, op: Op) -> bool {
        match op {
            Op::Register { .. } | Op::Snapshot => return false,
            Op::Launch { tenant, mem, port } => {
                let req = launch_request(tenant, mem, port);
                self.nfs[tenant] = Some(self.nic.nf_launch(req).expect("bare launch").nf_id);
            }
            Op::Send { port, .. } => {
                for _ in 0..SEND_COUNT {
                    self.packet_seq += 1;
                    self.nic
                        .rx_packet(&send_packet(self.packet_seq, port))
                        .expect("bare rx");
                }
            }
            Op::Poll { tenant } => {
                while self
                    .nic
                    .poll_packet(self.nf(tenant))
                    .expect("bare poll")
                    .is_some()
                {}
            }
            Op::Stats { tenant } => {
                std::hint::black_box(self.nic.record_of(self.nf(tenant)).expect("bare stats"));
            }
            Op::Attest { tenant } => {
                let nf = self.nf(tenant);
                let measurement = self.nic.measurement_of(nf).expect("live NF");
                let params = DhParams::tiny_test_group();
                let mut verifier = Verifier::hello(&mut self.rng);
                let f = FunctionAttestation::respond(
                    &mut self.rng,
                    &mut self.nic,
                    nf,
                    &params,
                    verifier.nonce,
                )
                .expect("bare respond");
                let v_pub = verifier
                    .accept(&mut self.rng, self.vendor.public(), &measurement, &f.quote)
                    .expect("bare accept");
                assert_eq!(
                    f.session_key(&v_pub),
                    verifier.session_key(&f.quote.dh_public)
                );
            }
            Op::Teardown { tenant } => {
                let nf = self.nfs[tenant].take().expect("teardown follows launch");
                self.nic.nf_teardown(nf).expect("bare teardown");
            }
        }
        true
    }
}

impl Default for BareDevice {
    fn default() -> BareDevice {
        BareDevice::new()
    }
}

/// Replay the first `lines` lines of `script` in process with spans:
/// `request` -> `parse_request`, `Daemon::ingest`, `device` (the matching
/// bare-device or crypto call). The request id is the span unit.
pub fn replay_with_spans(script: &Script, lines: usize, tracer: &Tracer) {
    let mut daemon = Daemon::new(DaemonConfig::default());
    let mut bare = BareDevice::new();
    for (i, (line, op)) in script.lines.iter().zip(&script.ops).take(lines).enumerate() {
        let unit = i as u64 + 1;
        let request = tracer.open("request", None, unit);
        let start = Instant::now();
        std::hint::black_box(parse_request(line).expect("generated lines parse"));
        tracer.record("parse_request", start, Some(request), unit, 1, 1);
        let start = Instant::now();
        let responses = daemon.ingest(line);
        tracer.record(
            "Daemon::ingest",
            start,
            Some(request),
            unit,
            1,
            responses.len() as u64,
        );
        let start = Instant::now();
        if bare.apply(*op) {
            tracer.record("device", start, Some(request), unit, 1, 1);
        }
        tracer.close(request, 1);
    }
}

// ------------------------------------------------------------------
// The snicd child
// ------------------------------------------------------------------

/// Path of the `snicd` binary: `SNICD_BIN` (set by `run.sh`), else the
/// release directory of the active target directory.
pub fn snicd_bin() -> PathBuf {
    if let Some(p) = std::env::var_os("SNICD_BIN") {
        return PathBuf::from(p);
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from("target"), PathBuf::from);
    target.join("release").join("snicd")
}

/// A spawned `snicd --socket` with one open connection. Dropping it
/// kills the child, waits for it, and removes its socket and journal.
///
/// The connection is non-blocking and the client polls it instead of
/// sleeping in `read`. On this kind of host a sleeping peer costs the
/// daemon anywhere from 5 to 50 microseconds per response to wake,
/// depending on how deeply the other hardware thread idles, and that
/// cost would swamp what is being measured: `snicd`, not the scheduler.
pub struct Snicd {
    child: Child,
    socket: PathBuf,
    journal: Option<PathBuf>,
    stream: UnixStream,
    /// Bytes read but not yet handed out as whole lines.
    pending: Vec<u8>,
    /// Milliseconds from spawn to an accepted connection.
    pub boot_ms: f64,
}

impl Snicd {
    /// Spawn the daemon (default configuration) and connect to it.
    pub fn spawn(bin: &Path, journal: bool) -> std::io::Result<Snicd> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        // Relaxed: the counter only makes file names distinct.
        let tag = format!(
            "snicd-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        );
        std::fs::create_dir_all(OUT_DIR)?;
        let socket = Path::new(OUT_DIR).join(format!("{tag}.sock"));
        let journal = journal.then(|| Path::new(OUT_DIR).join(format!("{tag}.journal")));
        let _ = std::fs::remove_file(&socket);
        let mut cmd = Command::new(bin);
        cmd.arg("--socket").arg(&socket);
        if let Some(j) = &journal {
            let _ = std::fs::remove_file(j);
            cmd.arg("--journal").arg(j);
        }
        let start = Instant::now();
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let stream = loop {
            match UnixStream::connect(&socket) {
                Ok(s) => break s,
                Err(e) => {
                    let exited = child.try_wait()?.is_some();
                    if exited || start.elapsed() > IO_TIMEOUT {
                        let _ = child.kill();
                        let _ = child.wait();
                        let _ = std::fs::remove_file(&socket);
                        return Err(std::io::Error::new(
                            e.kind(),
                            format!("snicd did not accept a connection: {e}"),
                        ));
                    }
                    std::thread::sleep(Duration::from_micros(500));
                }
            }
        };
        let boot_ms = start.elapsed().as_secs_f64() * 1e3;
        // From here on `Snicd::drop` cleans up on every error path.
        let me = Snicd {
            child,
            socket,
            journal,
            stream,
            pending: Vec::with_capacity(8 << 10),
            boot_ms,
        };
        me.stream.set_nonblocking(true)?;
        Ok(me)
    }

    /// Retry `io` while it would block, yielding the processor between
    /// attempts (so a daemon sharing this hardware thread still runs),
    /// until [`IO_TIMEOUT`].
    fn poll<T>(mut io: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
        let start = Instant::now();
        let mut spins = 0u32;
        loop {
            match io() {
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted =>
                {
                    spins = spins.wrapping_add(1);
                    if spins.is_multiple_of(4096) && start.elapsed() > IO_TIMEOUT {
                        return Err(std::io::Error::new(
                            ErrorKind::TimedOut,
                            "snicd did not answer in time",
                        ));
                    }
                    std::thread::yield_now();
                }
                other => return other,
            }
        }
    }

    /// Write `batch` (whole lines), then read `n` response lines,
    /// handing each to `on_response` as it arrives.
    pub fn exchange(
        &mut self,
        batch: &[u8],
        n: usize,
        mut on_response: impl FnMut(&str),
    ) -> std::io::Result<()> {
        let mut sent = 0;
        while sent < batch.len() {
            sent += Self::poll(|| self.stream.write(&batch[sent..]))?;
        }
        let mut answered = 0;
        let mut chunk = [0u8; 4096];
        while answered < n {
            let got = Self::poll(|| self.stream.read(&mut chunk))?;
            if got == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "snicd closed the connection",
                ));
            }
            self.pending.extend_from_slice(&chunk[..got]);
            let mut from = 0;
            while let Some(end) = self.pending[from..].iter().position(|&b| b == b'\n') {
                let line = std::str::from_utf8(&self.pending[from..=from + end])
                    .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
                on_response(line);
                answered += 1;
                from += end + 1;
            }
            self.pending.drain(..from);
        }
        if answered > n {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                "snicd sent more responses than requests",
            ));
        }
        Ok(())
    }

    /// Peak resident set of the child so far, MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        crate::host::proc_status_mib(&self.child.id().to_string(), "VmHWM:")
    }

    /// Ask the daemon to drain, disconnect, and wait for a clean exit.
    pub fn drain(mut self) -> std::io::Result<()> {
        self.exchange(b"{\"op\":\"drain\",\"id\":0}\n", 1, |_| {})?;
        self.stream.shutdown(std::net::Shutdown::Both)?;
        let deadline = Instant::now() + IO_TIMEOUT;
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(std::io::Error::other(format!("snicd exited with {status}")))
                };
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err(std::io::Error::new(
            ErrorKind::TimedOut,
            "snicd did not exit after drain",
        ))
    }
}

impl Drop for Snicd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
        if let Some(j) = &self.journal {
            let _ = std::fs::remove_file(j);
        }
    }
}

// ------------------------------------------------------------------
// One socket trial
// ------------------------------------------------------------------

/// What one socket trial measured.
#[derive(Debug, Clone)]
pub struct ServeTrial {
    /// Spawn + connect + set-up lines, seconds.
    pub setup_s: f64,
    /// Wall-clock seconds of the measured requests.
    pub secs: f64,
    /// Requests written in the measured part.
    pub attempted: u64,
    /// Requests that failed: `"ok":false`, no response, or (all of them)
    /// a response stream that differs from the in-process oracle.
    pub failed: u64,
    /// Per request: batch written -> its response read, microseconds.
    pub request_us: Vec<f64>,
    /// Per NF lifecycle: `launch` written -> `teardown` answered, ms.
    pub lifecycle_ms: Vec<f64>,
    /// `VmHWM` of the child before `drain`, MiB.
    pub peak_rss_mib: f64,
    /// Spawn -> accepted connection, ms.
    pub boot_ms: f64,
}

impl ServeTrial {
    fn lost(attempted: u64, setup_s: f64) -> ServeTrial {
        ServeTrial {
            setup_s,
            secs: f64::NAN,
            attempted,
            failed: attempted,
            request_us: Vec::new(),
            lifecycle_ms: Vec::new(),
            peak_rss_mib: f64::NAN,
            boot_ms: f64::NAN,
        }
    }
}

/// Run one trial against a fresh `snicd`: set-up lines one at a time,
/// then the measured requests with `window` in flight. A daemon that
/// hangs, dies or answers wrongly makes a failed trial, never a hung
/// benchmark; the child and its files are removed either way.
pub fn socket_trial(
    bin: &Path,
    script: &Script,
    window: usize,
    journal: bool,
    expect: &[u8; 32],
    trace: Option<(&Tracer, u64)>,
) -> ServeTrial {
    let attempted = script.requests().len() as u64;
    let start = Instant::now();
    match socket_trial_inner(bin, script, window, journal, expect, start, trace) {
        Ok(trial) => trial,
        Err(e) => {
            eprintln!("benchmark: trial lost: {e}");
            ServeTrial::lost(attempted, start.elapsed().as_secs_f64())
        }
    }
}

fn socket_trial_inner(
    bin: &Path,
    script: &Script,
    window: usize,
    journal: bool,
    expect: &[u8; 32],
    start: Instant,
    trace: Option<(&Tracer, u64)>,
) -> std::io::Result<ServeTrial> {
    let trial_span = trace.map(|(t, unit)| t.open("trial", None, unit));
    let mut snicd = Snicd::spawn(bin, journal)?;
    let mut stream: Vec<u8> = Vec::with_capacity(script.lines.len() * 72);
    let mut not_ok = 0u64;
    for line in &script.lines[..script.setup_len] {
        snicd.exchange(format!("{line}\n").as_bytes(), 1, |r| {
            stream.extend_from_slice(r.as_bytes());
            not_ok += u64::from(!response_ok(r));
        })?;
    }
    if not_ok > 0 {
        return Err(std::io::Error::other("a set-up request was refused"));
    }
    let setup_s = start.elapsed().as_secs_f64();

    let requests = script.requests();
    let batches: Vec<(Vec<u8>, usize)> = requests
        .chunks(window)
        .map(|c| {
            (
                c.iter()
                    .flat_map(|l| l.bytes().chain(std::iter::once(b'\n')))
                    .collect(),
                c.len(),
            )
        })
        .collect();
    let mut written_ns = Vec::with_capacity(requests.len());
    let mut answered_ns = Vec::with_capacity(requests.len());
    let clock = Instant::now();
    for (batch, n) in &batches {
        let batch_start = Instant::now();
        let w = clock.elapsed().as_nanos() as u64;
        written_ns.extend(std::iter::repeat_n(w, *n));
        snicd.exchange(batch, *n, |r| {
            answered_ns.push(clock.elapsed().as_nanos() as u64);
            stream.extend_from_slice(r.as_bytes());
            not_ok += u64::from(!response_ok(r));
        })?;
        if let Some((t, unit)) = trace {
            t.record("batch", batch_start, trial_span, unit, 0, *n as u64);
        }
    }
    let secs = clock.elapsed().as_secs_f64();
    if let (Some((t, _)), Some(id)) = (trace, trial_span) {
        t.close(id, requests.len() as u64);
    }

    let peak_rss_mib = snicd.peak_rss_mib().unwrap_or(f64::NAN);
    let boot_ms = snicd.boot_ms;
    snicd.drain()?;

    let first = script.setup_len;
    let request_us = written_ns
        .iter()
        .zip(&answered_ns)
        .map(|(w, a)| (a - w) as f64 / 1e3)
        .collect();
    let lifecycle_ms = script
        .lifecycles
        .iter()
        .map(|&launch| (answered_ns[launch + 3 - first] - written_ns[launch - first]) as f64 / 1e6)
        .collect();
    let attempted = requests.len() as u64;
    // A stream that differs from the oracle's means some answer was
    // wrong even though it said ok: count the whole trial as failed.
    let failed = if sha256(&stream) == *expect {
        not_ok
    } else {
        attempted
    };
    Ok(ServeTrial {
        setup_s,
        secs,
        attempted,
        failed,
        request_us,
        lifecycle_ms,
        peak_rss_mib,
        boot_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_a_pure_function_of_the_seed() {
        assert_eq!(dataplane_script(9, 400), dataplane_script(9, 400));
        assert_ne!(
            dataplane_script(9, 400).lines,
            dataplane_script(10, 400).lines
        );
        assert_eq!(churn_script(9, 40), churn_script(9, 40));
        assert_ne!(churn_script(9, 40).lines, churn_script(10, 40).lines);
    }

    #[test]
    fn dataplane_mix_is_six_one_one_per_block_and_round_robin() {
        let s = dataplane_script(0xf15a, 800);
        assert_eq!(s.setup_len, 2 * TENANTS);
        assert_eq!(s.requests().len(), 800);
        let verbs: Vec<&str> = s.ops[s.setup_len..].iter().map(Op::verb).collect();
        for block in verbs.chunks(8) {
            assert_eq!(block.iter().filter(|v| **v == "send").count(), 6);
            assert_eq!(block.iter().filter(|v| **v == "poll").count(), 1);
            assert_eq!(block.iter().filter(|v| **v == "stats").count(), 1);
        }
        for (i, line) in s.requests().iter().enumerate() {
            assert!(
                line.contains(&format!("\"tenant\":\"t{}\"", i % TENANTS)),
                "{line}"
            );
        }
    }

    #[test]
    fn churn_lifecycles_are_four_lines_with_snapshots_between() {
        let s = churn_script(3, 2 * SNAPSHOT_EVERY);
        assert_eq!(s.lifecycles.len(), 2 * SNAPSHOT_EVERY);
        assert_eq!(s.requests().len(), 4 * 2 * SNAPSHOT_EVERY + 2);
        for &l in &s.lifecycles {
            let verbs: Vec<&str> = s.ops[l..l + 4].iter().map(Op::verb).collect();
            assert_eq!(verbs, ["launch", "attest", "stats", "teardown"]);
        }
        assert_eq!(s.ops.iter().filter(|o| **o == Op::Snapshot).count(), 2);
        assert_eq!(
            s.lines[s.lifecycles[0]],
            format!(
                "{{\"op\":\"launch\",\"tenant\":\"t0\",\"id\":5,\"name\":\"nf\",\"mem\":{}}}",
                match s.ops[s.lifecycles[0]] {
                    Op::Launch { mem, .. } => mem,
                    other => panic!("lifecycle starts with {other:?}"),
                }
            )
        );
        let mems: std::collections::BTreeSet<u64> = s.lifecycles[..8]
            .iter()
            .map(|&l| match s.ops[l] {
                Op::Launch { mem, .. } => mem,
                other => panic!("lifecycle starts with {other:?}"),
            })
            .collect();
        assert_eq!(mems.len(), 8, "each block of eight uses every size once");
    }

    #[test]
    fn in_process_replay_answers_every_line_once_and_repeats() {
        for script in [dataplane_script(7, 480), churn_script(7, 12)] {
            let a = replay_in_process(&script);
            let b = replay_in_process(&script);
            assert_eq!(a.failed, 0);
            assert_eq!(a.digest, b.digest);
            assert_eq!(a.shed_share(), 0.0);
            assert_eq!(a.queue_depth_max(), 1);
            assert_eq!(a.ingest_us.len(), script.requests().len());
            assert_eq!(a.daemon.history().len(), script.lines.len());
        }
        let other = replay_in_process(&dataplane_script(8, 480));
        assert_ne!(
            other.digest,
            replay_in_process(&dataplane_script(7, 480)).digest
        );
    }

    #[test]
    fn bare_device_follows_both_scripts_and_spans_nest_per_request() {
        for script in [dataplane_script(7, 160), churn_script(7, 10)] {
            let mut bare = BareDevice::new();
            let reached = script.ops.iter().filter(|op| bare.apply(**op)).count();
            let silent = script
                .ops
                .iter()
                .filter(|o| matches!(o, Op::Register { .. } | Op::Snapshot))
                .count();
            assert_eq!(reached + silent, script.ops.len());

            let tracer = Tracer::new();
            replay_with_spans(&script, 60, &tracer);
            let spans = tracer.spans();
            let requests: Vec<_> = spans.iter().filter(|s| s.name == "request").collect();
            assert_eq!(requests.len(), script.lines.len().min(60));
            for (id, s) in spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name == "request")
            {
                let children: Vec<_> = spans
                    .iter()
                    .filter(|c| c.parent == Some(id as u32))
                    .collect();
                assert!(children.len() == 2 || children.len() == 3);
                assert!(children.iter().all(|c| c.unit == s.unit));
                assert!(crate::span::self_ns(&spans, id as u32) <= s.dur_ns());
            }
        }
    }

    #[test]
    fn ok_is_read_from_the_canonical_member() {
        assert!(response_ok(
            r#"{"id":3,"tenant":"a","op":"send","ok":true,"delivered":4}"#
        ));
        assert!(!response_ok(
            r#"{"id":3,"op":"send","ok":false,"code":"SERVE-FAULT","error":"x"}"#
        ));
        assert!(!response_ok(""));
    }
}
