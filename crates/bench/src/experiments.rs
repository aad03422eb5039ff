//! Experiment reports: one function per paper table/figure.
//!
//! Each report prints the paper's headline numbers alongside the measured
//! reproduction so EXPERIMENTS.md can be filled mechanically. Index into
//! [`AppRecord::gpu`]: 0 = plain, 1 = MAT, 2 = MAT+GRP, 3 = GDroid.

use crate::record::AppRecord;
use crate::stats::Series;
use std::fmt::Write;

/// Speedups of ladder rung `num` over rung `den` per app.
fn ladder_speedups(records: &[AppRecord], num: usize, den: usize) -> Series {
    Series::new(records.iter().map(|r| r.gpu[den].total_ns / r.gpu[num].total_ns).collect())
}

/// Renders a descending series as a compact decile sketch.
fn decile_sketch(s: &Series) -> String {
    let sorted = s.sorted_desc();
    if sorted.is_empty() {
        return "(empty)".into();
    }
    let mut out = String::from("deciles ");
    for d in 0..=10 {
        let idx = (d * (sorted.len() - 1)) / 10;
        write!(out, "{:.2} ", sorted[idx]).unwrap();
    }
    out
}

/// Table I — dataset characteristics.
pub fn table1(records: &[AppRecord]) -> String {
    let nodes = Series::new(records.iter().map(|r| r.icfg_nodes as f64).collect());
    let methods = Series::new(records.iter().map(|r| r.reachable_methods as f64).collect());
    let slots = Series::new(records.iter().map(|r| r.mean_slots).collect());
    let maxwl = Series::new(records.iter().map(|r| r.max_worklist as f64).collect());
    let mut out = String::new();
    writeln!(out, "== Table I: dataset characteristics ({} apps) ==", records.len()).unwrap();
    writeln!(out, "  no. of CFG nodes   paper 6217 | measured mean {:.0}", nodes.mean()).unwrap();
    writeln!(out, "  no. of Methods     paper  268 | measured mean {:.0}", methods.mean()).unwrap();
    writeln!(out, "  no. of Variable    paper  116 | measured mean slot-pool {:.0}", slots.mean())
        .unwrap();
    writeln!(
        out,
        "  max Worklist len   paper   74 | measured mean-of-max {:.0} (max {:.0})",
        maxwl.mean(),
        maxwl.max()
    )
    .unwrap();
    out
}

/// Fig. 1 — Amandroid total vs IDFG-construction time.
pub fn fig1(records: &[AppRecord]) -> String {
    let total_min = Series::new(records.iter().map(|r| r.amandroid_ns / 6e10).collect());
    let fractions =
        Series::new(records.iter().map(|r| r.amandroid_idfg_ns / r.amandroid_ns).collect());
    let mut out = String::new();
    writeln!(out, "== Fig. 1: Amandroid execution time ({} apps) ==", records.len()).unwrap();
    writeln!(out, "  slowest app        paper ~38 min | measured {:.1} min", total_min.max())
        .unwrap();
    writeln!(out, "  median app         measured {:.2} min", total_min.percentile(50.0)).unwrap();
    writeln!(
        out,
        "  IDFG share         paper 58%..96% | measured {:.0}%..{:.0}% (mean {:.0}%)",
        fractions.min() * 100.0,
        fractions.max() * 100.0,
        fractions.mean() * 100.0
    )
    .unwrap();
    writeln!(out, "  total-minutes {}", decile_sketch(&total_min)).unwrap();
    out
}

/// Fig. 4 — plain GPU vs multithreaded CPU.
pub fn fig4(records: &[AppRecord]) -> String {
    let speedups = Series::new(records.iter().map(|r| r.cpu_mt_ns / r.gpu[0].total_ns).collect());
    let mut out = String::new();
    writeln!(out, "== Fig. 4: plain GPU vs CPU ({} apps) ==", records.len()).unwrap();
    writeln!(out, "  average speedup    paper 1.81x | measured {:.2}x", speedups.mean()).unwrap();
    writeln!(out, "  peak speedup       paper 3.39x | measured {:.2}x", speedups.max()).unwrap();
    writeln!(
        out,
        "  share < 2x         paper 65.9% | measured {:.1}%",
        (speedups.fraction_between(1.0, 2.0)) * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "  share slower (<1x) paper  7.3% | measured {:.1}%",
        speedups.fraction_below(1.0) * 100.0
    )
    .unwrap();
    writeln!(out, "  {}", decile_sketch(&speedups)).unwrap();
    out
}

/// Fig. 8 — full GDroid vs plain GPU.
pub fn fig8(records: &[AppRecord]) -> String {
    let all = ladder_speedups(records, 3, 0);
    let mat = ladder_speedups(records, 1, 0);
    let mat_grp = ladder_speedups(records, 2, 0);
    let mut out = String::new();
    writeln!(out, "== Fig. 8: GDroid overview vs plain ({} apps) ==", records.len()).unwrap();
    writeln!(out, "  peak speedup       paper 128x  | measured {:.1}x", all.max()).unwrap();
    writeln!(out, "  average speedup    paper 71.3x | measured {:.1}x", all.mean()).unwrap();
    writeln!(out, "  MAT-only avg       {:.1}x, MAT+GRP avg {:.1}x", mat.mean(), mat_grp.mean())
        .unwrap();
    writeln!(out, "  {}", decile_sketch(&all)).unwrap();
    out
}

/// Fig. 9 — MAT vs plain.
pub fn fig9(records: &[AppRecord]) -> String {
    let s = ladder_speedups(records, 1, 0);
    let mut out = String::new();
    writeln!(out, "== Fig. 9: MAT vs plain ({} apps) ==", records.len()).unwrap();
    writeln!(out, "  average speedup    paper 26.7x | measured {:.1}x", s.mean()).unwrap();
    writeln!(out, "  peak speedup       paper 92.4x | measured {:.1}x", s.max()).unwrap();
    writeln!(out, "  minimum speedup    paper  7.6x | measured {:.1}x", s.min()).unwrap();
    writeln!(
        out,
        "  share in 20x-40x   paper 59.4% | measured {:.1}%",
        s.fraction_between(20.0, 40.0) * 100.0
    )
    .unwrap();
    writeln!(out, "  {}", decile_sketch(&s)).unwrap();
    out
}

/// Fig. 10 — memory footprint, matrix vs set.
pub fn fig10(records: &[AppRecord]) -> String {
    let ratios =
        Series::new(records.iter().map(|r| r.matrix_bytes as f64 / r.set_bytes as f64).collect());
    let mb = Series::new(records.iter().map(|r| r.set_bytes as f64 / (1 << 20) as f64).collect());
    let mut out = String::new();
    writeln!(out, "== Fig. 10: memory footprint MAT vs set ({} apps) ==", records.len()).unwrap();
    writeln!(
        out,
        "  mean ratio         paper 25% (75% saved) | measured {:.0}%",
        ratios.mean() * 100.0
    )
    .unwrap();
    writeln!(out, "  worst-case ratio   paper 34% | measured {:.0}%", ratios.max() * 100.0)
        .unwrap();
    writeln!(out, "  set-store footprint mean {:.1} MiB, max {:.1} MiB", mb.mean(), mb.max())
        .unwrap();
    out
}

/// Fig. 11 — GRP on top of MAT.
pub fn fig11(records: &[AppRecord]) -> String {
    let s = ladder_speedups(records, 2, 1);
    let div_mat = Series::new(records.iter().map(|r| r.gpu[1].divergence).collect());
    let div_grp = Series::new(records.iter().map(|r| r.gpu[2].divergence).collect());
    let mut out = String::new();
    writeln!(out, "== Fig. 11: GRP vs MAT baseline ({} apps) ==", records.len()).unwrap();
    writeln!(out, "  average speedup    paper ~1.43x | measured {:.2}x", s.mean()).unwrap();
    writeln!(
        out,
        "  share < 1.5x       paper 76.3% | measured {:.1}%",
        s.fraction_below(1.5) * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "  share degraded     paper 15.5% | measured {:.1}%",
        s.fraction_below(1.0) * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "  divergence factor  MAT {:.2} -> GRP {:.2} (passes/warp)",
        div_mat.mean(),
        div_grp.mean()
    )
    .unwrap();
    writeln!(out, "  {}", decile_sketch(&s)).unwrap();
    out
}

/// Fig. 12 — MER on top of MAT+GRP.
pub fn fig12(records: &[AppRecord]) -> String {
    let s = ladder_speedups(records, 3, 2);
    let mut out = String::new();
    writeln!(out, "== Fig. 12: MER vs MAT+GRP baseline ({} apps) ==", records.len()).unwrap();
    writeln!(out, "  average speedup    paper 1.94x | measured {:.2}x", s.mean()).unwrap();
    writeln!(out, "  peak speedup       paper 4.76x | measured {:.2}x", s.max()).unwrap();
    writeln!(
        out,
        "  share in 1.5x-3x   paper 67.4% | measured {:.1}%",
        s.fraction_between(1.5, 3.0) * 100.0
    )
    .unwrap();
    writeln!(out, "  {}", decile_sketch(&s)).unwrap();
    out
}

/// Table II — worklist profiling before/after MER.
pub fn table2(records: &[AppRecord]) -> String {
    // "before MER" = MAT+GRP run (index 2); "after" = GDroid (index 3).
    let before: Vec<_> = records.iter().map(|r| (&r.gpu[2].profile, r.gpu[2].rounds)).collect();
    let after: Vec<_> = records.iter().map(|r| (&r.gpu[3].profile, r.gpu[3].rounds)).collect();
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let b32 = mean(&before.iter().map(|(p, _)| p.le_32 * 100.0).collect::<Vec<_>>());
    let b64 = mean(&before.iter().map(|(p, _)| p.le_64 * 100.0).collect::<Vec<_>>());
    let bgt = mean(&before.iter().map(|(p, _)| p.gt_64 * 100.0).collect::<Vec<_>>());
    let a32 = mean(&after.iter().map(|(p, _)| p.le_32 * 100.0).collect::<Vec<_>>());
    let a64 = mean(&after.iter().map(|(p, _)| p.le_64 * 100.0).collect::<Vec<_>>());
    let agt = mean(&after.iter().map(|(p, _)| p.gt_64 * 100.0).collect::<Vec<_>>());
    let rounds_b = Series::new(before.iter().map(|(_, r)| *r as f64 / 1000.0).collect());
    let rounds_a = Series::new(after.iter().map(|(_, r)| *r as f64 / 1000.0).collect());

    let mut out = String::new();
    writeln!(out, "== Table II: worklist profiling ({} apps) ==", records.len()).unwrap();
    writeln!(out, "  sizes <=32 / 32-64 / >64 (% of rounds)").unwrap();
    writeln!(out, "    before MER  paper 87.6/4.3/8.1  | measured {b32:.1}/{b64:.1}/{bgt:.1}")
        .unwrap();
    writeln!(out, "    after  MER  paper 74.4/11.9/13.7 | measured {a32:.1}/{a64:.1}/{agt:.1}")
        .unwrap();
    writeln!(out, "  worklist iterations per app (K): avg / max / min").unwrap();
    writeln!(
        out,
        "    before MER  paper 5.6/6.8/4.3 | measured {:.1}/{:.1}/{:.1}",
        rounds_b.mean(),
        rounds_b.max(),
        rounds_b.min()
    )
    .unwrap();
    writeln!(
        out,
        "    after  MER  paper 4.5/5.8/3.6 | measured {:.1}/{:.1}/{:.1}",
        rounds_a.mean(),
        rounds_a.max(),
        rounds_a.min()
    )
    .unwrap();
    out
}

/// Machine-readable per-app rows (CSV) for external plotting of any
/// figure: one line per app with every engine's time and the derived
/// per-figure series.
pub fn csv(records: &[AppRecord]) -> String {
    let mut out = String::from(
        "index,icfg_nodes,methods,max_worklist,amandroid_ns,amandroid_idfg_ns,cpu_mt_ns,gpu_plain_ns,gpu_mat_ns,gpu_matgrp_ns,gpu_gdroid_ns,set_bytes,matrix_bytes,leaks,fig4_speedup,fig8_speedup,fig9_speedup,fig11_speedup,fig12_speedup\n",
    );
    for r in records {
        writeln!(
            out,
            "{},{},{},{},{:.0},{:.0},{:.0},{:.0},{:.0},{:.0},{:.0},{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4}",
            r.index,
            r.icfg_nodes,
            r.reachable_methods,
            r.max_worklist,
            r.amandroid_ns,
            r.amandroid_idfg_ns,
            r.cpu_mt_ns,
            r.gpu[0].total_ns,
            r.gpu[1].total_ns,
            r.gpu[2].total_ns,
            r.gpu[3].total_ns,
            r.set_bytes,
            r.matrix_bytes,
            r.leaks,
            r.cpu_mt_ns / r.gpu[0].total_ns,
            r.gpu[0].total_ns / r.gpu[3].total_ns,
            r.gpu[0].total_ns / r.gpu[1].total_ns,
            r.gpu[1].total_ns / r.gpu[2].total_ns,
            r.gpu[2].total_ns / r.gpu[3].total_ns,
        )
        .unwrap();
    }
    out
}

/// Per-app engine breakdown for calibration work (not a paper figure).
pub fn debug(records: &[AppRecord]) -> String {
    let mut out = String::new();
    writeln!(out, "== debug: per-app engine breakdown ==").unwrap();
    for r in records {
        writeln!(
            out,
            "app {:3}: nodes {:6} methods {:4} maxwl {:3} | cpu_mt {:9.3}ms amandroid {:9.1}ms",
            r.index,
            r.icfg_nodes,
            r.reachable_methods,
            r.max_worklist,
            r.cpu_mt_ns / 1e6,
            r.amandroid_ns / 1e6
        )
        .unwrap();
        for (name, g) in ["plain", "mat", "matgrp", "gdroid"].iter().zip(&r.gpu) {
            writeln!(
                out,
                "   {name:7} total {:9.3}ms kernel {:9.3}ms alloc {:6} div {:5.2} coal {:4.2} rounds {:5} nodes {:6} util {:4.2} launches {:3} rows {:7} fw {:7} un {:6}",
                g.total_ns / 1e6,
                g.kernel_ns / 1e6,
                g.allocations,
                g.divergence,
                g.coalescing,
                g.rounds,
                g.nodes_processed,
                g.utilization,
                g.launches,
                g.rows_read,
                g.facts_written,
                g.unions
            )
            .unwrap();
        }
    }
    out
}

/// All experiments, in paper order.
pub fn all(records: &[AppRecord]) -> String {
    let mut out = String::new();
    out.push_str(&table1(records));
    out.push_str(&fig1(records));
    out.push_str(&fig4(records));
    out.push_str(&fig8(records));
    out.push_str(&fig9(records));
    out.push_str(&fig10(records));
    out.push_str(&fig11(records));
    out.push_str(&fig12(records));
    out.push_str(&table2(records));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::run_corpus;
    use gdroid_apk::Corpus;

    /// Pins the Table I calibration: the paper-profile corpus must stay in
    /// the reported bands. Uses a small prefix for speed; the bands are
    /// generous enough to be stable across prefix sizes.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-scale apps; run with --release")]
    fn corpus_calibration_stays_in_table1_bands() {
        let corpus = Corpus::paper_sized(12);
        let records = run_corpus(&corpus, 12);
        let mean = |f: &dyn Fn(&crate::record::AppRecord) -> f64| {
            records.iter().map(f).sum::<f64>() / records.len() as f64
        };
        let nodes = mean(&|r| r.icfg_nodes as f64);
        assert!((2_000.0..20_000.0).contains(&nodes), "ICFG nodes {nodes} out of band");
        let methods = mean(&|r| r.reachable_methods as f64);
        assert!((80.0..600.0).contains(&methods), "methods {methods} out of band");
        let maxwl = records.iter().map(|r| r.max_worklist).max().unwrap();
        assert!(maxwl >= 32, "no app ever exceeded one warp: {maxwl}");
    }

    /// Pins the optimization-ladder shape: MAT ≫ 1, GDroid ≥ MAT+GRP ≥ MAT
    /// on corpus averages (the headline of Figs. 8/9).
    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-scale apps; run with --release")]
    fn ladder_shape_is_stable() {
        let corpus = Corpus::paper_sized(8);
        let records = run_corpus(&corpus, 8);
        let mean_speedup = |num: usize, den: usize| {
            records.iter().map(|r| r.gpu[den].total_ns / r.gpu[num].total_ns).sum::<f64>()
                / records.len() as f64
        };
        let mat = mean_speedup(1, 0);
        let mat_grp = mean_speedup(2, 0);
        let gdroid = mean_speedup(3, 0);
        assert!(mat > 5.0, "MAT speedup collapsed: {mat}");
        assert!(mat_grp > mat * 0.95, "GRP regressed the ladder: {mat_grp} vs {mat}");
        assert!(gdroid > mat_grp * 0.95, "MER regressed the ladder: {gdroid} vs {mat_grp}");
        // Memory: MAT always saves.
        for r in &records {
            assert!(r.matrix_bytes < r.set_bytes, "app {} matrix >= set", r.index);
        }
    }

    #[test]
    fn all_reports_render_without_panicking() {
        let corpus = Corpus::test_corpus(2);
        let records = run_corpus(&corpus, 2);
        let text = all(&records);
        for needle in [
            "Table I", "Fig. 1", "Fig. 4", "Fig. 8", "Fig. 9", "Fig. 10", "Fig. 11", "Fig. 12",
            "Table II",
        ] {
            assert!(text.contains(needle), "missing section {needle}");
        }
        // Paper reference values are present for comparison.
        assert!(text.contains("paper 128x"));
        assert!(text.contains("paper 26.7x"));
    }
}
