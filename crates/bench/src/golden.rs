//! Golden-snapshot renderers: one fixed-precision, deterministic text
//! document per figure pipeline.
//!
//! Every simulation in this workspace is bit-deterministic (no wall
//! clock, seeded RNG, order-preserving pool), so each figure's output
//! at a pinned scale/seed can be snapshotted byte-for-byte. The
//! renderers here produce those documents, and [`check_or_bless`] is
//! the one comparison every golden test runs against its checked-in
//! file (regenerating it when `SNIC_BLESS=1`).
//!
//! Floats are printed with fixed width (`{:.4}`) — enough precision
//! that a real behaviour change moves the text, while the underlying
//! bit-determinism guarantees the rendering never drifts on its own.

use std::fmt::Write as _;
use std::path::Path;

use crate::fig5::{self, DegradationPoint};
use crate::{fig6, fig8, Scale};

/// Compare `actual` with the golden document at `path`, or write it
/// there when `SNIC_BLESS=1`. A mismatch is an `Err` naming the first
/// differing line (1-based), that line's expected and actual text, and
/// both documents' line counts.
pub fn check_or_bless(path: &Path, actual: &str) -> Result<(), String> {
    let shown = path.display();
    if std::env::var("SNIC_BLESS").as_deref() == Ok("1") {
        let written = std::fs::create_dir_all(path.parent().unwrap_or(Path::new(".")))
            .and_then(|()| std::fs::write(path, actual));
        return written.map_err(|e| format!("cannot bless golden snapshot {shown}: {e}"));
    }
    let expected = std::fs::read_to_string(path).map_err(|e| {
        format!("missing golden snapshot {shown} ({e}); regenerate with SNIC_BLESS=1")
    })?;
    first_difference(&expected, actual).map_err(|diff| {
        format!(
            "golden snapshot {shown} diverged at {diff}\nif the change is intentional, \
             regenerate with SNIC_BLESS=1 and review the diff"
        )
    })
}

/// `Ok` when the documents are equal, else where they first differ.
fn first_difference(expected: &str, actual: &str) -> Result<(), String> {
    if expected == actual {
        return Ok(());
    }
    let show = |l: Option<&str>| l.map_or_else(|| "<end of document>".into(), |l| format!("{l:?}"));
    let (mut want, mut got) = (expected.split('\n'), actual.split('\n'));
    let mut line = 1;
    loop {
        let (e, a) = (want.next(), got.next());
        if e != a {
            return Err(format!(
                "line {line}\n  expected: {}\n  actual:   {}\n({} expected lines, {} actual lines)",
                show(e),
                show(a),
                expected.lines().count(),
                actual.lines().count()
            ));
        }
        line += 1;
    }
}

/// The pinned scale every golden document is rendered at: small enough
/// that the whole suite runs inside the CI budget, large enough that
/// each figure's qualitative shape (cache pressure, scrub costs,
/// accelerator scaling) survives.
pub fn golden_scale() -> Scale {
    Scale {
        flows: 2_000,
        packets: 2_500,
        patterns: 200,
        fw_rules: 100,
        lpm_prefixes: 400,
        monitor_ms: 20,
    }
}

/// L2 sweep points for the fig5a snapshot.
pub const GOLDEN_L2_SIZES: [u64; 2] = [64 << 10, 4 << 20];
/// Cotenancy points for the fig5b snapshot.
pub const GOLDEN_NF_COUNTS: [usize; 2] = [2, 4];
/// Fixed L2 for the fig5b snapshot.
pub const GOLDEN_FIG5B_L2: u64 = 4 << 20;

fn write_points(out: &mut String, points: &[DegradationPoint]) {
    for p in points {
        let _ = writeln!(
            out,
            "  {:<14} median {:>9.4}%  p1 {:>9.4}%  p99 {:>9.4}%",
            p.kind.name(),
            p.median_pct,
            p.p1_pct,
            p.p99_pct
        );
    }
}

/// Figure 5a (IPC degradation vs L2 size) as a golden document.
pub fn fig5a_text(scale: &Scale) -> String {
    let mut out = String::from("fig5a: IPC degradation vs L2 size (2 NFs)\n");
    for (l2, points) in fig5::fig5a(scale, &GOLDEN_L2_SIZES) {
        let _ = writeln!(out, "l2={} KiB", l2 >> 10);
        write_points(&mut out, &points);
    }
    out
}

/// Figure 5b (IPC degradation vs cotenancy) as a golden document.
pub fn fig5b_text(scale: &Scale) -> String {
    let mut out = String::from("fig5b: IPC degradation vs cotenancy (4 MiB L2)\n");
    for (n, points) in fig5::fig5b(scale, &GOLDEN_NF_COUNTS, GOLDEN_FIG5B_L2) {
        let _ = writeln!(out, "nfs={n}");
        write_points(&mut out, &points);
    }
    out
}

/// Figure 6 (trusted-instruction latency per NF) as a golden document.
/// Scale-independent: the workload is each NF's paper memory profile.
pub fn fig6_text() -> String {
    let mut out = String::from("fig6: trusted-instruction latency per NF\n");
    for row in fig6::run() {
        let _ = writeln!(
            out,
            "  {:<14} mem {:>12}  launch {:>10.4} ms (digest {:>9.4} ms)  \
             teardown {:>9.4} ms (scrub {:>9.4} ms)",
            row.kind.name(),
            row.memory.to_string(),
            row.launch.total().as_millis_f64(),
            row.launch.sha_digest.as_millis_f64(),
            row.teardown.total().as_millis_f64(),
            row.teardown.scrub.as_millis_f64()
        );
    }
    out
}

/// Figure 8 (DPI throughput vs threads × frame size) as a golden
/// document.
pub fn fig8_text(scale: &Scale) -> String {
    let mut out = String::from("fig8: DPI throughput (Mpps) vs threads x frame\n");
    let matrix = fig8::run(scale);
    for (frame, row) in fig8::FRAMES.iter().zip(&matrix) {
        let mut line = format!("  frame {frame:>5}B:");
        for (threads, mpps) in fig8::THREADS.iter().zip(row) {
            let _ = write!(line, "  t{threads}={mpps:.4}");
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_text_is_stable_across_runs() {
        let scale = golden_scale();
        assert_eq!(fig8_text(&scale), fig8_text(&scale));
    }

    #[test]
    fn a_mismatch_names_its_first_differing_line() {
        let expected = "a\nb\nc\nd\ne\n";
        let err = first_difference(expected, "a\nb\nX\nd\ne\n").unwrap_err();
        assert!(err.starts_with("line 3\n"), "{err}");
        assert!(err.contains("expected: \"c\"\n  actual:   \"X\""), "{err}");
        assert!(err.ends_with("(5 expected lines, 5 actual lines)"), "{err}");
        assert_eq!(first_difference(expected, expected), Ok(()));
        // A dropped trailing newline differs too, past the last line.
        let err = first_difference(expected, "a\nb\nc\nd\ne").unwrap_err();
        assert!(err.starts_with("line 6\n"), "{err}");
        assert!(err.contains("<end of document>"), "{err}");
    }

    #[test]
    fn fig6_text_lists_all_nfs() {
        let doc = fig6_text();
        assert_eq!(doc.lines().count(), 1 + 6, "header + six NFs:\n{doc}");
    }
}
