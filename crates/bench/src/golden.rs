//! Golden snapshots: the one comparison every golden test runs.
//!
//! Every simulation in this workspace is bit-deterministic (no wall
//! clock, seeded RNG, order-preserving pool), so each registry entry's
//! text at a pinned scale can be snapshotted byte for byte. A golden is
//! exactly what `snicctl exp <name>` prints, rendered at
//! [`golden_scale`]; a `_full` golden is what `snicctl exp <name> --full`
//! prints. [`check_or_bless`] compares a rendering with its checked-in
//! file, or rewrites the file when `SNIC_BLESS=1`.

use std::path::Path;

use crate::Scale;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
