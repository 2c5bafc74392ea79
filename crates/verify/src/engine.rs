//! The abstract-interpretation engine: a worklist fixpoint over
//! [`crate::domain`] values, a loop-bound pass over the CFG, and the
//! manifest-conformance checks that together make up Pass 0.

use std::collections::HashSet;
use std::fmt;

use snic_crypto::sha256::{sha256, to_hex};
use snic_telemetry::json::escape;
use snic_types::AccelKind;

use crate::certificate::AnalysisCertificate;
use crate::domain::{AbsState, AbsVal, Interval, Taint};
use crate::ir::{Block, NfProgram, Op, Operand, RegionClass, Terminator};
use crate::report::{Violation, ViolationKind};

/// Default fixpoint step budget: generous for real NFs (which converge in
/// tens of steps) while still catching pathological CFGs long before they
/// stall a launch path.
pub const DEFAULT_STEP_BUDGET: u64 = 20_000;

/// The resource envelope Pass 0 proves the program confined to. This is
/// the analyzer's view of the launch manifest: granted VA windows, the
/// exclusive accelerator families, the host-sanctioned DMA window, and
/// the admission-control instruction ceiling.
#[derive(Debug, Clone)]
pub struct AnalysisManifest {
    /// Granted virtual-address windows `(base, len)` — §4.1/§4.2: the
    /// NF's own RAM partition as mapped by its locked TLB entries.
    pub regions: Vec<(u64, u64)>,
    /// Granted accelerator families (§4.3 exclusive clusters).
    pub accel: Vec<AccelKind>,
    /// Host-sanctioned DMA window `(base, len)` in the same VA space,
    /// or `None` if the NF has no host-bus grant (§4.2).
    pub dma_window: Option<(u64, u64)>,
    /// Admission-control ceiling on per-packet instructions; the proven
    /// ceiling must not exceed it.
    pub max_insns_per_packet: u64,
}

impl AnalysisManifest {
    /// True if `[base, base+len)` fits entirely inside one granted window.
    pub fn grants(&self, base: u64, len: u64) -> bool {
        self.regions
            .iter()
            .any(|&(wb, wl)| base >= wb && base.saturating_add(len) <= wb.saturating_add(wl))
    }

    /// SHA-256 over a canonical encoding (folded into the certificate).
    pub fn digest(&self) -> [u8; 32] {
        let mut out = Vec::new();
        out.extend_from_slice(b"snic-analysis-manifest-v1");
        for &(b, l) in &self.regions {
            out.extend_from_slice(&b.to_le_bytes());
            out.extend_from_slice(&l.to_le_bytes());
        }
        out.push(0xfe);
        for a in &self.accel {
            out.push(*a as u8);
        }
        out.push(0xfd);
        match self.dma_window {
            None => out.push(0),
            Some((b, l)) => {
                out.push(1);
                out.extend_from_slice(&b.to_le_bytes());
                out.extend_from_slice(&l.to_le_bytes());
            }
        }
        out.extend_from_slice(&self.max_insns_per_packet.to_le_bytes());
        sha256(&out)
    }
}

/// The result of running Pass 0 over one program.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Name of the analyzed program.
    pub program: String,
    /// All violations, deduplicated, in discovery order. `nf` is
    /// `None` until [`crate::pass0::analyze_launch`] attributes them.
    pub violations: Vec<Violation>,
    /// Proven per-packet instruction ceiling (present even on failure if
    /// the loop pass completed).
    pub insn_ceiling: Option<u64>,
    /// Fixpoint steps consumed.
    pub steps: u64,
    /// The certificate — present iff the analysis is clean.
    pub certificate: Option<AnalysisCertificate>,
}

impl AnalysisReport {
    /// True if the program proved confined.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Digest of the analysis certificate, all-zero when rejected.
    /// `nf_attest` binds this into its quotes so a remote verifier can
    /// distinguish "proved confined" from "launched anyway".
    pub fn certificate_digest(&self) -> [u8; 32] {
        self.certificate.map_or([0u8; 32], |c| c.digest())
    }

    /// Machine-readable JSON (hand-rolled; the workspace carries no
    /// serde). Stable field set: `program`, `clean`, `insn_ceiling`,
    /// `steps`, `certificate_digest` and `violations`, each one a
    /// [`Violation::to_json`] object.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"program\":\"{}\",", escape(&self.program)));
        s.push_str(&format!("\"clean\":{},", self.is_clean()));
        match self.insn_ceiling {
            Some(c) => s.push_str(&format!("\"insn_ceiling\":{c},")),
            None => s.push_str("\"insn_ceiling\":null,"),
        }
        s.push_str(&format!("\"steps\":{},", self.steps));
        match &self.certificate {
            Some(cert) => s.push_str(&format!(
                "\"certificate_digest\":\"{}\",",
                to_hex(&cert.digest())
            )),
            None => s.push_str("\"certificate_digest\":null,"),
        }
        let violations: Vec<String> = self.violations.iter().map(Violation::to_json).collect();
        s.push_str(&format!("\"violations\":[{}]}}", violations.join(",")));
        s
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(
                f,
                "Pass 0 {}: CLEAN (insn ceiling {}, {} fixpoint step(s))",
                self.program,
                self.insn_ceiling
                    .map_or_else(|| "-".to_string(), |c| c.to_string()),
                self.steps
            )
        } else {
            writeln!(
                f,
                "Pass 0 {}: REJECTED ({} violation(s))",
                self.program,
                self.violations.len()
            )?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

/// Run Pass 0 with the default step budget.
pub fn analyze(program: &NfProgram, manifest: &AnalysisManifest) -> AnalysisReport {
    analyze_with_budget(program, manifest, DEFAULT_STEP_BUDGET)
}

/// Run Pass 0 with an explicit fixpoint step budget.
pub fn analyze_with_budget(
    program: &NfProgram,
    manifest: &AnalysisManifest,
    budget: u64,
) -> AnalysisReport {
    let mut sink = ViolationSink::default();

    if let Err(detail) = validate(program) {
        sink.emit(ViolationKind::MalformedIr, detail);
        return finish(program, manifest, sink, None, 0);
    }

    let loops = loop_pass(program, manifest, &mut sink);
    let steps = fixpoint(program, manifest, budget, &mut sink);

    finish(program, manifest, sink, loops, steps)
}

fn finish(
    program: &NfProgram,
    manifest: &AnalysisManifest,
    sink: ViolationSink,
    insn_ceiling: Option<u64>,
    steps: u64,
) -> AnalysisReport {
    let violations = sink.ordered;
    let certificate = if violations.is_empty() {
        Some(AnalysisCertificate {
            program_digest: program.digest(),
            manifest_digest: manifest.digest(),
            insn_ceiling: insn_ceiling.unwrap_or(0),
        })
    } else {
        None
    };
    AnalysisReport {
        program: program.name.clone(),
        violations,
        insn_ceiling,
        steps,
        certificate,
    }
}

/// Dedup-on-insert violation collector: the fixpoint revisits blocks, so
/// the same violation is rediscovered on every pass over its block.
#[derive(Default)]
struct ViolationSink {
    seen: HashSet<(ViolationKind, String)>,
    ordered: Vec<Violation>,
}

impl ViolationSink {
    fn emit(&mut self, kind: ViolationKind, detail: String) {
        if self.seen.insert((kind, detail.clone())) {
            self.ordered.push(Violation {
                kind,
                nf: None,
                range: None,
                detail,
            });
        }
    }
}

/// Structural validation; the `Err` detail becomes a `P0-MALFORMED-IR`.
fn validate(p: &NfProgram) -> Result<(), String> {
    if p.blocks.is_empty() {
        return Err("program has no blocks".into());
    }
    let check_operand = |o: &Operand, where_: &str| -> Result<(), String> {
        if let Operand::Reg(r) = o {
            if r.0 >= p.regs {
                return Err(format!("{where_}: register r{} out of range", r.0));
            }
        }
        Ok(())
    };
    for (bi, b) in p.blocks.iter().enumerate() {
        for (oi, op) in b.ops.iter().enumerate() {
            let at = format!("b{bi} op{oi}");
            match op {
                Op::Havoc { dst, lo, hi, .. } => {
                    if dst.0 >= p.regs {
                        return Err(format!("{at}: register r{} out of range", dst.0));
                    }
                    if lo > hi {
                        return Err(format!("{at}: inverted havoc range [{lo}, {hi}]"));
                    }
                }
                Op::Arith { dst, a, b, .. } => {
                    if dst.0 >= p.regs {
                        return Err(format!("{at}: register r{} out of range", dst.0));
                    }
                    check_operand(a, &at)?;
                    check_operand(b, &at)?;
                }
                Op::Mod {
                    dst, a, modulus, ..
                } => {
                    if dst.0 >= p.regs {
                        return Err(format!("{at}: register r{} out of range", dst.0));
                    }
                    if *modulus == 0 {
                        return Err(format!("{at}: zero modulus"));
                    }
                    check_operand(a, &at)?;
                }
                Op::Load {
                    dst,
                    region,
                    off,
                    width,
                    ..
                } => {
                    if dst.0 >= p.regs {
                        return Err(format!("{at}: register r{} out of range", dst.0));
                    }
                    if region.0 >= p.regions.len() {
                        return Err(format!("{at}: region {} out of range", region.0));
                    }
                    if *width == 0 {
                        return Err(format!("{at}: zero-width access"));
                    }
                    check_operand(off, &at)?;
                }
                Op::Store {
                    region,
                    off,
                    val,
                    width,
                    ..
                } => {
                    if region.0 >= p.regions.len() {
                        return Err(format!("{at}: region {} out of range", region.0));
                    }
                    if *width == 0 {
                        return Err(format!("{at}: zero-width access"));
                    }
                    check_operand(off, &at)?;
                    check_operand(val, &at)?;
                }
                Op::Accel { val, .. } => check_operand(val, &at)?,
                Op::Dma {
                    region, off, len, ..
                } => {
                    if region.0 >= p.regions.len() {
                        return Err(format!("{at}: region {} out of range", region.0));
                    }
                    check_operand(off, &at)?;
                    check_operand(len, &at)?;
                }
                Op::Emit { val, .. } => check_operand(val, &at)?,
            }
        }
        let targets: &[crate::ir::BlockId] = match &b.term {
            Terminator::Jump(t) => std::slice::from_ref(t),
            Terminator::Branch(ts) => {
                if ts.is_empty() {
                    return Err(format!("b{bi}: empty branch"));
                }
                ts
            }
            Terminator::Return => &[],
        };
        for t in targets {
            if t.0 >= p.blocks.len() {
                return Err(format!("b{bi}: successor b{} out of range", t.0));
            }
        }
    }
    Ok(())
}

fn successors(b: &Block) -> Vec<usize> {
    match &b.term {
        Terminator::Jump(t) => vec![t.0],
        Terminator::Branch(ts) => ts.iter().map(|t| t.0).collect(),
        Terminator::Return => Vec::new(),
    }
}

/// The loop-bound pass: find back edges, require a trip bound at every
/// loop header, derive per-block execution multipliers from the natural
/// loop bodies, and prove a per-packet instruction ceiling via a longest
/// path over the back-edge-free CFG. Returns the ceiling (None if the
/// CFG was too broken to price).
fn loop_pass(p: &NfProgram, manifest: &AnalysisManifest, sink: &mut ViolationSink) -> Option<u64> {
    let n = p.blocks.len();
    let succs: Vec<Vec<usize>> = p.blocks.iter().map(successors).collect();

    // Iterative DFS from the entry; an edge into a block still on the
    // DFS stack is a back edge.
    let mut color = vec![0u8; n]; // 0 = white, 1 = gray, 2 = black
    let mut back_edges: Vec<(usize, usize)> = Vec::new();
    let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
    color[0] = 1;
    while let Some(&(node, idx)) = stack.last() {
        if idx < succs[node].len() {
            stack.last_mut().expect("nonempty").1 += 1;
            let t = succs[node][idx];
            match color[t] {
                0 => {
                    color[t] = 1;
                    stack.push((t, 0));
                }
                1 => back_edges.push((node, t)),
                _ => {}
            }
        } else {
            color[node] = 2;
            stack.pop();
        }
    }

    // Every back-edge header needs a bound.
    let mut headers: Vec<usize> = back_edges.iter().map(|&(_, h)| h).collect();
    headers.sort_unstable();
    headers.dedup();
    let mut unbounded = false;
    for &h in &headers {
        if p.blocks[h].loop_bound.is_none() {
            unbounded = true;
            sink.emit(
                ViolationKind::UnboundedLoop,
                format!("loop header b{h} has no per-packet trip bound"),
            );
        }
    }
    if unbounded {
        return None;
    }

    // Natural loop bodies: for a back edge (t, h), every block that can
    // reach t without passing through h, plus h itself. Blocks in a
    // loop's body execute at most `bound` times (nested loops multiply).
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (b, ss) in succs.iter().enumerate() {
        for &s in ss {
            preds[s].push(b);
        }
    }
    let mut multiplier = vec![1u64; n];
    for &h in &headers {
        let bound = p.blocks[h].loop_bound.unwrap_or(1).max(1);
        let mut body = vec![false; n];
        body[h] = true;
        let mut bfs: Vec<usize> = back_edges
            .iter()
            .filter(|&&(_, hh)| hh == h)
            .map(|&(t, _)| t)
            .collect();
        for &t in &bfs {
            body[t] = true;
        }
        while let Some(x) = bfs.pop() {
            if x == h {
                continue;
            }
            for &pd in &preds[x] {
                if !body[pd] {
                    body[pd] = true;
                    bfs.push(pd);
                }
            }
        }
        for (b, inside) in body.iter().enumerate() {
            if *inside {
                multiplier[b] = multiplier[b].saturating_mul(bound);
            }
        }
    }

    // Ceiling = longest path over the CFG with back edges removed. If a
    // cycle survives back-edge removal the CFG is irreducible — refuse.
    let back: HashSet<(usize, usize)> = back_edges.into_iter().collect();
    let mut indeg = vec![0usize; n];
    for (b, ss) in succs.iter().enumerate() {
        for &s in ss {
            if !back.contains(&(b, s)) {
                indeg[s] += 1;
            }
        }
    }
    let cost: Vec<u64> = p
        .blocks
        .iter()
        .enumerate()
        .map(|(b, blk)| {
            let insns: u64 = blk.ops.iter().map(|o| u64::from(o.insns())).sum();
            insns.saturating_mul(multiplier[b])
        })
        .collect();
    let mut dist = vec![0u64; n];
    dist[0] = cost[0];
    let mut topo: Vec<usize> = (0..n).filter(|&b| indeg[b] == 0).collect();
    let mut seen_count = 0usize;
    while let Some(b) = topo.pop() {
        seen_count += 1;
        for &s in &succs[b] {
            if back.contains(&(b, s)) {
                continue;
            }
            dist[s] = dist[s].max(dist[b].saturating_add(cost[s]));
            indeg[s] -= 1;
            if indeg[s] == 0 {
                topo.push(s);
            }
        }
    }
    if seen_count != n {
        sink.emit(
            ViolationKind::MalformedIr,
            "irreducible control flow: cycle without a dominating loop header".into(),
        );
        return None;
    }
    let ceiling = dist.iter().copied().max().unwrap_or(0);
    if ceiling > manifest.max_insns_per_packet {
        sink.emit(
            ViolationKind::InsnCeiling,
            format!(
                "proven per-packet ceiling {ceiling} insns exceeds admission limit {}",
                manifest.max_insns_per_packet
            ),
        );
    }
    Some(ceiling)
}

fn eval(state: &AbsState, o: &Operand) -> AbsVal {
    match o {
        Operand::Imm(v) => AbsVal {
            iv: Interval::point(*v),
            taint: Taint::NONE,
        },
        // A register that may be undefined on some path: assume the
        // worst on both axes (full range, full taint).
        Operand::Reg(r) => state.regs[r.0 as usize].unwrap_or(AbsVal {
            iv: Interval::TOP,
            taint: Taint::PACKET.union(Taint::STATE),
        }),
    }
}

/// The worklist fixpoint: propagates abstract states through the CFG,
/// widening at loop headers, and checks every access against the
/// manifest as it goes. Returns the number of block transfers executed.
fn fixpoint(
    p: &NfProgram,
    manifest: &AnalysisManifest,
    budget: u64,
    sink: &mut ViolationSink,
) -> u64 {
    let n = p.blocks.len();
    let headers: HashSet<usize> = p
        .blocks
        .iter()
        .enumerate()
        .filter(|(_, b)| b.loop_bound.is_some())
        .map(|(i, _)| i)
        .collect();

    let mut in_states: Vec<Option<AbsState>> = vec![None; n];
    in_states[0] = Some(AbsState::bottom(p.regs as usize));
    let mut join_count = vec![0u32; n];
    let mut worklist: Vec<usize> = vec![0];
    let mut steps = 0u64;

    while let Some(b) = worklist.pop() {
        steps += 1;
        if steps > budget {
            sink.emit(
                ViolationKind::FixpointBudget,
                format!("fixpoint exceeded {budget}-step budget"),
            );
            return steps;
        }
        let mut state = match &in_states[b] {
            Some(s) => s.clone(),
            None => continue,
        };
        transfer(p, b, &mut state, manifest, sink);
        for s in successors(&p.blocks[b]) {
            let merged = match &in_states[s] {
                None => state.clone(),
                Some(old) => {
                    join_count[s] += 1;
                    // Widen at loop headers once the join count shows the
                    // state is still climbing; plain join elsewhere.
                    if headers.contains(&s) && join_count[s] > 4 {
                        old.widen(&old.join(&state))
                    } else {
                        old.join(&state)
                    }
                }
            };
            if in_states[s].as_ref() != Some(&merged) {
                in_states[s] = Some(merged);
                if !worklist.contains(&s) {
                    worklist.push(s);
                }
            }
        }
    }
    steps
}

/// Abstract execution of one block, checking each access.
fn transfer(
    p: &NfProgram,
    block: usize,
    state: &mut AbsState,
    manifest: &AnalysisManifest,
    sink: &mut ViolationSink,
) {
    for (oi, op) in p.blocks[block].ops.iter().enumerate() {
        match op {
            Op::Havoc {
                dst, lo, hi, taint, ..
            } => {
                state.regs[dst.0 as usize] = Some(AbsVal {
                    iv: Interval::new(*lo, *hi),
                    taint: *taint,
                });
            }
            Op::Arith {
                dst, a, b, scale, ..
            } => {
                let av = eval(state, a);
                let bv = eval(state, b);
                state.regs[dst.0 as usize] = Some(AbsVal {
                    iv: av.iv.add(&bv.iv.scale(*scale)),
                    taint: av.taint.union(bv.taint),
                });
            }
            Op::Mod {
                dst, a, modulus, ..
            } => {
                let av = eval(state, a);
                state.regs[dst.0 as usize] = Some(AbsVal {
                    iv: av.iv.rem(*modulus),
                    taint: av.taint,
                });
            }
            Op::Load {
                dst,
                region,
                off,
                width,
                ..
            } => {
                let decl = &p.regions[region.0];
                let offv = eval(state, off);
                let granted =
                    decl.class != RegionClass::Foreign && manifest.grants(decl.base, decl.len);
                if !granted {
                    sink.emit(
                        ViolationKind::UngrantedRegion,
                        format!(
                            "b{block} op{oi}: load from ungranted region '{}' ({:#x}+{:#x})",
                            decl.name, decl.base, decl.len
                        ),
                    );
                } else if offv.iv.hi.saturating_add(u64::from(*width)) > decl.len {
                    sink.emit(
                        ViolationKind::OobLoad,
                        format!(
                            "b{block} op{oi}: load offset {}+{width} can exceed region '{}' len {:#x}",
                            offv.iv, decl.name, decl.len
                        ),
                    );
                }
                state.regs[dst.0 as usize] = Some(AbsVal {
                    iv: Interval::TOP,
                    taint: decl.class.load_taint().union(offv.taint),
                });
            }
            Op::Store {
                region,
                off,
                val,
                width,
                ..
            } => {
                let decl = &p.regions[region.0];
                let offv = eval(state, off);
                let valv = eval(state, val);
                let granted =
                    decl.class != RegionClass::Foreign && manifest.grants(decl.base, decl.len);
                if !granted {
                    let flow = offv.taint.union(valv.taint);
                    if flow.is_clean() {
                        sink.emit(
                            ViolationKind::UngrantedRegion,
                            format!(
                                "b{block} op{oi}: store to ungranted region '{}' ({:#x}+{:#x})",
                                decl.name, decl.base, decl.len
                            ),
                        );
                    } else {
                        sink.emit(
                            ViolationKind::TaintLeak,
                            format!(
                                "b{block} op{oi}: {} value stored to ungranted region '{}' ({:#x}+{:#x})",
                                flow.label(),
                                decl.name,
                                decl.base,
                                decl.len
                            ),
                        );
                    }
                } else if offv.iv.hi.saturating_add(u64::from(*width)) > decl.len {
                    sink.emit(
                        ViolationKind::OobStore,
                        format!(
                            "b{block} op{oi}: store offset {}+{width} can exceed region '{}' len {:#x}",
                            offv.iv, decl.name, decl.len
                        ),
                    );
                }
            }
            Op::Accel { kind, val, .. } => {
                let valv = eval(state, val);
                if !manifest.accel.contains(kind) {
                    if valv.taint.is_clean() {
                        sink.emit(
                            ViolationKind::UngrantedAccel,
                            format!(
                                "b{block} op{oi}: submission to ungranted accelerator {kind:?}"
                            ),
                        );
                    } else {
                        sink.emit(
                            ViolationKind::TaintLeak,
                            format!(
                                "b{block} op{oi}: {} value submitted to ungranted accelerator {kind:?}",
                                valv.taint.label()
                            ),
                        );
                    }
                }
            }
            Op::Dma {
                region, off, len, ..
            } => {
                let decl = &p.regions[region.0];
                let offv = eval(state, off);
                let lenv = eval(state, len);
                let lo = decl.base.saturating_add(offv.iv.lo);
                let hi = decl
                    .base
                    .saturating_add(offv.iv.hi)
                    .saturating_add(lenv.iv.hi);
                match manifest.dma_window {
                    None => sink.emit(
                        ViolationKind::DmaOverflow,
                        format!("b{block} op{oi}: DMA issued with no host-sanctioned window"),
                    ),
                    Some((wb, wl)) => {
                        if lo < wb || hi > wb.saturating_add(wl) {
                            sink.emit(
                                ViolationKind::DmaOverflow,
                                format!(
                                    "b{block} op{oi}: DMA span [{lo:#x}, {hi:#x}) can exceed window {wb:#x}+{wl:#x}",
                                ),
                            );
                        }
                    }
                }
            }
            Op::Emit { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Operand, ProgramBuilder, RegionClass, Terminator};

    fn manifest() -> AnalysisManifest {
        AnalysisManifest {
            regions: vec![(0x0100_0000, 0x0010_0000), (0x1000_0000, 0x0100_0000)],
            accel: vec![AccelKind::Dpi],
            dma_window: Some((0x1000_0000, 0x1000)),
            max_insns_per_packet: 100_000,
        }
    }

    fn two_regions(p: &mut ProgramBuilder) -> (crate::ir::RegionId, crate::ir::RegionId) {
        let pkt = p.region("pktbuf", 0x0100_0000, 0x0010_0000, RegionClass::PacketBuf);
        let heap = p.region("heap", 0x1000_0000, 0x0100_0000, RegionClass::Private);
        (pkt, heap)
    }

    #[test]
    fn clean_program_gets_certificate() {
        let mut p = ProgramBuilder::new("clean");
        let (pkt, heap) = two_regions(&mut p);
        let field = p.load(pkt, Operand::Imm(0), 8, 100);
        let slot = p.modulo(Operand::Reg(field), 1024, 5);
        let addr = p.arith(Operand::Imm(0), Operand::Reg(slot), 64, 5);
        p.store(heap, Operand::Reg(addr), Operand::Reg(field), 8, 40);
        p.accel(AccelKind::Dpi, Operand::Reg(field), 30);
        p.emit(Operand::Reg(field), 10);
        let prog = p.finish();
        let r = analyze(&prog, &manifest());
        assert!(r.is_clean(), "{r}");
        let cert = r.certificate.expect("certificate");
        assert_eq!(cert.program_digest, prog.digest());
        assert_eq!(r.insn_ceiling, Some(190));
    }

    #[test]
    fn oob_store_flagged_with_stable_code() {
        let mut p = ProgramBuilder::new("oob");
        let (pkt, heap) = two_regions(&mut p);
        let field = p.load(pkt, Operand::Imm(0), 8, 10);
        // Unreduced packet value used directly as a heap offset: ⊤.
        p.store(heap, Operand::Reg(field), Operand::Imm(0), 8, 10);
        let r = analyze(&p.finish(), &manifest());
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].kind.code(), "P0-OOB-STORE");
        assert!(r.certificate.is_none());
    }

    #[test]
    fn taint_leak_to_foreign_region() {
        let mut p = ProgramBuilder::new("leak");
        let (pkt, _) = two_regions(&mut p);
        let other = p.region("victim", 0x2000_0000, 0x1000, RegionClass::Foreign);
        let field = p.load(pkt, Operand::Imm(0), 8, 10);
        let slot = p.modulo(Operand::Reg(field), 8, 2);
        p.store(other, Operand::Reg(slot), Operand::Reg(field), 8, 10);
        let r = analyze(&p.finish(), &manifest());
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].kind, ViolationKind::TaintLeak);
        assert!(r.violations[0].detail.contains("packet-derived"));
    }

    #[test]
    fn clean_store_to_foreign_region_is_ungranted() {
        let mut p = ProgramBuilder::new("probe");
        two_regions(&mut p);
        let other = p.region("victim", 0x2000_0000, 0x1000, RegionClass::Foreign);
        p.store(other, Operand::Imm(0), Operand::Imm(1), 8, 10);
        let r = analyze(&p.finish(), &manifest());
        assert_eq!(r.violations[0].kind.code(), "P0-REGION-UNGRANTED");
    }

    #[test]
    fn unbounded_loop_rejected_bounded_accepted() {
        let build = |bound: Option<u64>| {
            let mut p = ProgramBuilder::new("loop");
            let (pkt, _) = two_regions(&mut p);
            let body = p.add_block();
            let exit = p.add_block();
            p.terminate(Terminator::Jump(body));
            p.select(body);
            let i = p.havoc(0, 63, Taint::NONE, 1);
            let _ = p.load(pkt, Operand::Reg(i), 8, 6);
            p.terminate(Terminator::Branch(vec![body, exit]));
            if let Some(n) = bound {
                p.loop_bound(body, n);
            }
            p.select(exit);
            p.emit(Operand::Imm(0), 1);
            p.finish()
        };
        let r = analyze(&build(None), &manifest());
        assert_eq!(r.violations[0].kind.code(), "P0-UNBOUNDED-LOOP");
        let r = analyze(&build(Some(64)), &manifest());
        assert!(r.is_clean(), "{r}");
        // 7 insns/iteration * 64 iterations + 1 exit insn.
        assert_eq!(r.insn_ceiling, Some(7 * 64 + 1));
    }

    #[test]
    fn insn_ceiling_enforced() {
        let mut m = manifest();
        m.max_insns_per_packet = 10;
        let mut p = ProgramBuilder::new("hot");
        two_regions(&mut p);
        p.emit(Operand::Imm(0), 50);
        let r = analyze(&p.finish(), &m);
        assert_eq!(r.violations[0].kind.code(), "P0-INSN-CEILING");
        assert_eq!(r.insn_ceiling, Some(50));
    }

    #[test]
    fn dma_overflow_flagged() {
        let mut p = ProgramBuilder::new("dma");
        let (_, heap) = two_regions(&mut p);
        // Window is 0x1000 bytes at heap base; a packet-sized length up
        // to 0x2000 can overflow it.
        let len = p.havoc(0, 0x2000, Taint::PACKET, 5);
        p.dma(heap, Operand::Imm(0), Operand::Reg(len), 20);
        let r = analyze(&p.finish(), &manifest());
        assert_eq!(r.violations[0].kind.code(), "P0-DMA-OVERFLOW");
    }

    #[test]
    fn ungranted_accel_flagged() {
        let mut p = ProgramBuilder::new("accel");
        two_regions(&mut p);
        p.accel(AccelKind::Crypto, Operand::Imm(1), 10);
        let r = analyze(&p.finish(), &manifest());
        assert_eq!(r.violations[0].kind.code(), "P0-ACCEL-UNGRANTED");
    }

    #[test]
    fn malformed_ir_rejected() {
        let mut p = ProgramBuilder::new("bad");
        two_regions(&mut p);
        p.push(crate::ir::Op::Emit {
            val: Operand::Reg(crate::ir::Reg(99)),
            insns: 1,
        });
        let r = analyze(&p.finish(), &manifest());
        assert_eq!(r.violations[0].kind.code(), "P0-MALFORMED-IR");
    }

    #[test]
    fn fixpoint_budget_trips() {
        // A long chain of bounded loops still converges, but with a
        // 1-step budget the engine must bail with the budget code.
        let mut p = ProgramBuilder::new("budget");
        let (pkt, _) = two_regions(&mut p);
        let body = p.add_block();
        let exit = p.add_block();
        p.terminate(Terminator::Jump(body));
        p.select(body);
        let i = p.havoc(0, 7, Taint::NONE, 1);
        let _ = p.load(pkt, Operand::Reg(i), 8, 2);
        p.terminate(Terminator::Branch(vec![body, exit]));
        p.loop_bound(body, 8);
        p.select(exit);
        p.emit(Operand::Imm(0), 1);
        let r = analyze_with_budget(&p.finish(), &manifest(), 1);
        assert!(r
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::FixpointBudget));
    }

    #[test]
    fn report_json_round_trips_fields() {
        let mut p = ProgramBuilder::new("clean-json");
        let (pkt, _) = two_regions(&mut p);
        let v = p.load(pkt, Operand::Imm(0), 8, 10);
        p.emit(Operand::Reg(v), 5);
        let r = analyze(&p.finish(), &manifest());
        let js = r.to_json();
        assert!(js.contains("\"clean\":true"), "{js}");
        assert!(js.contains("\"certificate_digest\":\""), "{js}");
        assert!(js.contains("\"violations\":[]"), "{js}");
    }
}
