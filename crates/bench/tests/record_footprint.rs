//! The memory footprint of a recording: pinned as counts, since a peak
//! RSS is only what the host makes of them.
//!
//! `nf_access_trace` counts an NF's events, then writes them once into
//! an exactly sized shared buffer. Under a counting allocator (this file
//! is its own test binary, so the allocator is nobody else's) recording
//! DPI makes exactly one allocation as large as the trace — the trace
//! itself — and the live bytes of the recording thread never exceed the
//! trace, the packets it is recorded over and a fixed slack for the NF
//! and one packet's events. A `Vec` grown event by event and then copied
//! into the `Arc` holds the trace at least twice at its peak. No timing
//! in here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering::Relaxed};

use snic_bench::streams::{nf_access_trace, workload, SharedTrace};
use snic_bench::Scale;
use snic_nf::{FrameSource, NfKind};
use snic_uarch::stream::Access;

/// Tracks the live bytes of the thread that asked to be counted and
/// their high-water mark, and counts the blocks (fresh or regrown) of at
/// least `LARGE` bytes it asks for; the test harness's own threads are
/// not counted.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static LARGE: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE_BLOCKS: AtomicUsize = AtomicUsize::new(0);
static LARGE_BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    COUNTED.try_with(Cell::get).unwrap_or(false)
}

/// Book `grown` more live bytes (negative when freed) and, for a block
/// of `size` bytes handed out, note whether it is a large one.
fn book(grown: isize, size: Option<usize>) {
    let live = LIVE.fetch_add(grown, Relaxed) + grown;
    PEAK.fetch_max(live, Relaxed);
    if let Some(size) = size.filter(|&s| s >= LARGE.load(Relaxed)) {
        LARGE_BLOCKS.fetch_add(1, Relaxed);
        LARGE_BYTES.store(size, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics and
// the thread-local is `const`-initialised with no destructor, so neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            book(layout.size() as isize, Some(layout.size()));
        }
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counted() {
            book(-(layout.size() as isize), None);
        }
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            book(new_size as isize - layout.size() as isize, Some(new_size));
        }
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` on a fresh thread whose allocations are the only ones
/// counted, starting from zero live bytes: its return value, the live
/// bytes it left behind and the high-water mark on the way.
fn counting<T: Send>(f: impl FnOnce() -> T + Send) -> (T, isize, isize) {
    std::thread::scope(|s| {
        s.spawn(|| {
            LIVE.store(0, Relaxed);
            PEAK.store(0, Relaxed);
            COUNTED.with(|c| c.set(true));
            let out = f();
            COUNTED.with(|c| c.set(false));
            (out, LIVE.load(Relaxed), PEAK.load(Relaxed))
        })
        .join()
        .expect("the counted thread panicked")
    })
}

/// Bytes the NF, its build and one packet's events may add on top of
/// the trace and the packets: a thirtieth of the trace at this scale.
const SLACK: isize = 256 << 10;

#[test]
fn a_recording_is_one_exact_allocation_and_holds_the_trace_once() {
    let scale = Scale {
        flows: 300,
        packets: 1_000,
        patterns: 100,
        fw_rules: 50,
        lpm_prefixes: 200,
        monitor_ms: 20,
    };
    let seed = 0xf15a;

    // What holding the workload costs, collected the way the recorder
    // collects it.
    let (packets, held_packets, _) =
        counting(|| workload(NfKind::Dpi, &scale, seed).into_packets());
    let packets = packets.len();
    assert_eq!(packets, scale.packets);

    // A first recording learns the length, so the second can watch for
    // blocks as large as the trace from its first allocation on.
    let len = nf_access_trace(NfKind::Dpi, &scale, seed).len();
    let trace_bytes = len * size_of::<Access>();
    // The `Arc`'s block: its two reference counts, then the events,
    // padded to the counts' alignment.
    let (counts_then_events, _) = Layout::new::<[usize; 2]>()
        .extend(Layout::array::<Access>(len).expect("the trace fits a layout"))
        .expect("the trace fits a layout");
    let trace_block = counts_then_events.pad_to_align().size() as isize;
    LARGE.store(trace_bytes, Relaxed);
    LARGE_BLOCKS.store(0, Relaxed);
    let (trace, left, peak) =
        counting(|| SharedTrace::from(nf_access_trace(NfKind::Dpi, &scale, seed)));
    assert_eq!(trace.len(), len);
    assert!(
        trace_bytes > 4 * (held_packets + SLACK) as usize,
        "the trace ({trace_bytes} B) must dwarf what else is live"
    );

    // Everything but the trace is given back, and the peak holds the
    // trace once.
    assert_eq!(
        left, trace_block,
        "live bytes left behind besides the trace"
    );
    let bound = trace_block + held_packets + SLACK;
    assert!(
        peak <= bound,
        "peak {peak} B > trace {trace_block} B + packets {held_packets} B + slack {SLACK} B \
         ({:.2}x the trace)",
        peak as f64 / trace_block as f64
    );

    // One block as large as the trace, and it is the `Arc`'s: the
    // events after the two reference counts, padded.
    assert_eq!(
        LARGE_BLOCKS.load(Relaxed),
        1,
        "blocks of at least {trace_bytes} B for {len} events"
    );
    assert_eq!(
        LARGE_BYTES.load(Relaxed),
        trace_block as usize,
        "the trace's one block for {len} events"
    );
}
