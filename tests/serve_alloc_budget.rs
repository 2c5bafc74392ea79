//! The allocation budget of a data-plane line: a count that repeats
//! exactly, so it can be pinned where a timing cannot.
//!
//! `serve_dataplane`'s mix (6 `send` : 1 `poll` : 1 `stats`, four
//! tenants) is replayed through `Daemon::ingest` under a counting
//! allocator — this file is its own test binary, so the allocator is
//! nobody else's. A line may allocate for what the daemon *keeps* or
//! hands back, not for what it parses, counts and prints; and because
//! every steady-state line is held to its verb's exact count, nothing on
//! the path can be growing with the 150 000 lines of history behind it.
//! No timing in here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use snic::serve::daemon::{Daemon, DaemonConfig};

/// Counts `alloc`/`alloc_zeroed` calls (fresh blocks) and `realloc`
/// calls (a `Vec` or `String` outgrowing its block) made by the thread
/// that asked to be counted; the test harness's own threads are not.
struct Counting;

static FRESH: AtomicU64 = AtomicU64::new(0);
static REGROWN: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    COUNTED.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics and
// the thread-local is `const`-initialised with no destructor, so neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            FRESH.fetch_add(1, Relaxed);
        }
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            REGROWN.fetch_add(1, Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `benchmark/`'s `dataplane_script` shape: four tenants register and
/// launch one NF each on its own port, then `requests` requests, tenants
/// round-robin, every block of eight holding six `send`, one `poll` and
/// one `stats` in a seeded order.
fn script(seed: u64, requests: usize) -> Vec<(&'static str, String)> {
    let mut rng = seed;
    let mut next = move || {
        rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut lines = Vec::new();
    let mut push = |op: &'static str, t: usize, args: String| {
        let id = lines.len() + 1;
        let line = format!(r#"{{"op":"{op}","tenant":"t{t}","id":{id}{args}}}"#);
        lines.push((op, line));
    };
    for t in 0..4 {
        push("register", t, String::new());
    }
    for t in 0..4 {
        push(
            "launch",
            t,
            format!(r#","name":"nf","mem":8,"port":{}"#, 2_000 + t),
        );
    }
    let mut block = [
        "send", "send", "send", "send", "send", "send", "poll", "stats",
    ];
    for i in 0..requests {
        if i % block.len() == 0 {
            for k in (1..block.len()).rev() {
                block.swap(k, (next() % (k as u64 + 1)) as usize);
            }
        }
        let t = i % 4;
        match block[i % block.len()] {
            "send" => push("send", t, format!(r#","count":4,"port":{}"#, 2_000 + t)),
            op => push(op, t, r#","name":"nf""#.to_string()),
        }
    }
    lines
}

#[test]
fn a_dataplane_line_allocates_for_what_it_keeps() {
    // The device materialises its DRAM a 4 KiB page at a time, on first
    // touch, so until each tenant's 2 MiB RX ring has wrapped once a
    // `send` may add a page of device memory (the last of the 2 048 at
    // line 43 901 with this seed). From `WARM` on only the request path
    // is counted; from `STEADY` on the count is exact.
    const WARM: usize = 10_000;
    const STEADY: usize = 50_000;
    let lines = script(0xa110c, 150_000);
    let mut daemon = Daemon::new(DaemonConfig::default());
    // (verb, fresh blocks, packets the response says were polled)
    let mut cost = Vec::with_capacity(lines.len());
    let mut regrown_steady = 0;
    COUNTED.set(true);
    for (i, (op, line)) in lines.iter().enumerate() {
        let before = (FRESH.load(Relaxed), REGROWN.load(Relaxed));
        let responses = daemon.ingest(line);
        let fresh = FRESH.load(Relaxed) - before.0;
        if i >= WARM {
            regrown_steady += REGROWN.load(Relaxed) - before.1;
        }
        COUNTED.set(false);
        assert_eq!(responses.len(), 1, "{line}");
        let response = &responses[0];
        assert!(response.contains(r#""ok":true"#), "{line}: {response}");
        let polled = response.split(r#""polled":"#).nth(1).map_or(0, |tail| {
            let digits = tail.trim_end_matches('}');
            digits.parse::<u64>().expect("a count")
        });
        cost.push((*op, fresh, polled));
        drop(responses);
        COUNTED.set(true);
    }
    COUNTED.set(false);

    // What a steady-state line still allocates, each of them something
    // the daemon keeps or hands back:
    //   every verb  1  the history line (the snapshot's event source)
    //               1  the request's member list (dropped with the line)
    //               1  the response line
    //               1  the `Vec` the responses are returned in
    //   send      + 4  one frame per packet: the device takes a `Packet`,
    //                  which owns its bytes
    //   poll,     + 1  the NF name, queued with the op
    //   stats
    //   poll      + 2  per polled packet: `poll_packet` returns the frame
    //                  read back from device DRAM (a buffer, then the
    //                  `Bytes` made of it)
    // Transcript records, the queue slot, the counters and the ring slot
    // reuse or regrow storage that exists. The commit before this budget
    // spent 46 on a `send`, 31 on a `stats` and 23 + 3 a packet on a
    // `poll`: 50.75 fresh blocks and 5.13 regrowths a line over this mix
    // (the ledger's 55.9), against 13.25 and 0.00006 now.
    let budget = |op: &str, polled: u64| match op {
        "send" => 8,
        "stats" => 5,
        "poll" => 5 + 2 * polled,
        other => panic!("not a data-plane verb: {other}"),
    };
    for (i, &(op, fresh, polled)) in cost.iter().enumerate().skip(WARM) {
        let ring_page = u64::from(op == "send" && i < STEADY && fresh == budget(op, polled) + 1);
        assert_eq!(
            fresh - ring_page,
            budget(op, polled),
            "line {i} ({op}, {polled} polled), {} lines of history behind it",
            i + 1
        );
    }
    // The mix: the same count over lines 50 k-100 k as over 100 k-150 k
    // once each poll's packets are set aside (how many there are follows
    // the seeded order, not the history), and 13.25 a line with them.
    let window = |from: usize, to: usize| {
        let lines = &cost[from..to];
        let fresh: u64 = lines.iter().map(|&(_, fresh, _)| fresh).sum();
        let packets: u64 = lines.iter().map(|&(_, _, polled)| polled).sum();
        (fresh - 2 * packets, fresh as f64 / (to - from) as f64)
    };
    let (early, late) = (window(STEADY, 100_000), window(100_000, 150_000));
    assert_eq!(early.0, late.0, "allocations grew with history");
    assert_eq!(early.0, 50_000 / 8 * (6 * 8 + 5 + 5));
    for per_line in [early.1, late.1] {
        assert!((13.2..=13.3).contains(&per_line), "{per_line} a line");
    }
    // Regrowths are amortised doublings of the history, the transcript
    // and the rings' queues, and a response that outgrew its first
    // guess: a handful over 140 000 lines, not one a line.
    assert!(regrown_steady < 64, "{regrown_steady} regrowths");
}
