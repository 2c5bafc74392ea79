//! Figure 8: DPI accelerator throughput vs. cluster size and frame size.
//!
//! "We show results for cluster sizes of 16, 32, and 48 ... 1.5KB is the
//! maximum size of a standard Ethernet frame, while 9KB is the maximum
//! size of a jumbo frame. The high-level takeaway is that, as packet
//! sizes grow, the per-packet processing costs increase and a function
//! benefits from access to more hardware threads."

use crate::dpi::{DpiAccel, DpiAccelConfig};
use snic_nf::dpi::synth_patterns;

use crate::{render_table, Scale};

/// Thread counts on the x-axis.
pub const THREADS: [u32; 3] = [16, 32, 48];
/// Frame sizes (bytes) of the four series.
pub const FRAMES: [usize; 4] = [64, 512, 1500, 9000];

/// Measured throughput matrix: `rows[f][t]` in Mpps for frame `FRAMES[f]`
/// and thread count `THREADS[t]`.
///
/// The twelve `(frame, threads)` cells are independent closed-form
/// evaluations over one shared accelerator, fanned across the worker
/// pool per frame-size row.
pub fn run(scale: &Scale) -> Vec<Vec<f64>> {
    let accel = DpiAccel::new(
        &synth_patterns(scale.patterns, 0xf18),
        DpiAccelConfig::default(),
    );
    snic_sim::par_map(FRAMES.to_vec(), |frame| {
        THREADS
            .iter()
            .map(|&t| accel.throughput_pps(t, frame) / 1e6)
            .collect()
    })
}

/// Figure 8 as text: one row per frame size, one column per thread
/// count.
pub fn report(scale: &Scale, _: bool) -> Result<String, String> {
    let m = run(scale);
    let rows: Vec<Vec<String>> = FRAMES
        .iter()
        .enumerate()
        .map(|(f, &frame)| {
            // Decimal kilobytes, as the paper labels them: 1.5KB, 9KB.
            let mut row = vec![match frame {
                f if f < 1000 => format!("{f}B"),
                f if f % 1000 == 0 => format!("{}KB", f / 1000),
                f => format!("{:.1}KB", f as f64 / 1000.0),
            }];
            row.extend(m[f].iter().map(|v| format!("{v:.4}")));
            row
        })
        .collect();
    Ok(render_table(
        "Figure 8: DPI throughput (Mpps) vs threads x frame size (paper shape: small frames flat at frontend cap; 9KB scales with threads)",
        &["frame", "16 thr", "32 thr", "48 thr"],
        &rows,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_figure8() {
        let m = run(&Scale::quick());
        // 64B: flat near the frontend cap (~1.15 Mpps).
        assert!(
            (m[0][0] - m[0][2]).abs() < 0.01,
            "64B should be flat: {:?}",
            m[0]
        );
        assert!(m[0][0] > 1.0);
        // 9KB: scales with threads and never reaches the cap.
        assert!(m[3][2] > 2.5 * m[3][0], "9KB should scale: {:?}", m[3]);
        assert!(m[3][2] < m[0][0]);
        // For every thread count, larger frames are slower in pps.
        for f in 1..FRAMES.len() {
            for (cur, prev) in m[f].iter().zip(&m[f - 1]) {
                assert!(*cur <= *prev + 1e-9);
            }
        }
    }
}
