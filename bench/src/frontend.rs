//! `rc_lang::prepare`, taken apart into its public pieces so each layer
//! of the front end gets its own span.

use rc_lang::interp::Compiled;
use rc_lang::{lexer, liveness, parser, sema, to_rlang};

use crate::metrics::Values;
use crate::spans::{SelfTable, Spans};

/// Compiles `src`. With spans on, runs lex → parse → sema → `to_rlang`
/// → inference → liveness one layer at a time, times a whole `prepare`
/// of the same source beside them, and fails unless the two results are
/// equal. With spans off it is exactly `rc_lang::prepare`.
///
/// `parse` lexes internally; the standalone `lex` exists only to time
/// the lexer, and the parser's own time is the difference.
pub fn prepare(src: &str, sp: &mut Spans) -> Result<Compiled, String> {
    let err = |e: rc_lang::CompileError| format!("does not compile: {e}");
    if !sp.on() {
        return rc_lang::prepare(src).map_err(err);
    }
    let tokens = sp.leaf("lexer", || lexer::lex(src)).map_err(err)?;
    sp.count("tokens", tokens.len() as u64);
    let ast = sp.leaf("parser", || parser::parse(src)).map_err(err)?;
    let module = sp.leaf("sema", || sema::check(&ast)).map_err(err)?;
    let program = sp.leaf("to_rlang", || to_rlang::translate(&module));
    sp.count(
        "check_sites",
        program.funcs.iter().map(|f| check_sites(&f.body)).sum(),
    );
    let analysis = sp.leaf("rlang.infer", || rlang::analyse(&program));
    sp.count("rounds", analysis.rounds as u64);
    sp.count("safe", analysis.safe_count() as u64);
    sp.count("sites", analysis.site_count() as u64);
    let pins = sp.leaf("liveness", || {
        module.funcs.iter().map(liveness::pin_sets).collect()
    });
    let assembled = Compiled {
        module,
        analysis,
        pins,
    };
    let reference = sp.leaf("prepare", || rc_lang::prepare(src)).map_err(err)?;
    same(&assembled, &reference)?;
    Ok(assembled)
}

/// `chk` statements in a translated body.
fn check_sites(s: &rlang::Stmt) -> u64 {
    use rlang::Stmt;
    match s {
        Stmt::Seq(ss) => ss.iter().map(check_sites).sum(),
        Stmt::If { then_s, else_s, .. } => check_sites(then_s) + check_sites(else_s),
        Stmt::While { body, .. } | Stmt::Task { body, .. } => check_sites(body),
        Stmt::Chk { .. } => 1,
        _ => 0,
    }
}

/// Field-by-field equality of two compilations (`Compiled` has no
/// `PartialEq`; the pin sets compare by their debug form).
fn same(a: &Compiled, b: &Compiled) -> Result<(), String> {
    let (x, y) = (&a.analysis, &b.analysis);
    let differs = if a.module != b.module {
        "module"
    } else if x.summaries != y.summaries || x.rounds != y.rounds {
        "inference summaries"
    } else if x.site_safe != y.site_safe
        || x.site_states != y.site_states
        || x.eliminated_sites != y.eliminated_sites
        || x.provenance != y.provenance
    {
        "check-site verdicts"
    } else if format!("{:?}", a.pins) != format!("{:?}", b.pins) {
        "pin sets"
    } else {
        return Ok(());
    };
    Err(format!(
        "the assembled pipeline and prepare disagree on the {differs}"
    ))
}

/// Front-end metrics: per-program means over every traced compilation.
pub fn layer_metrics(t: &SelfTable, m: &mut Values) {
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("lexer.busy_ms", t.mean_ms("lexer"));
    put("lexer.tokens", t.mean("lexer", "tokens"));
    put("parser.busy_ms", t.mean_ms("parser") - t.mean_ms("lexer"));
    put("sema.busy_ms", t.mean_ms("sema"));
    put("to_rlang.busy_ms", t.mean_ms("to_rlang"));
    put("to_rlang.check_sites", t.mean("to_rlang", "check_sites"));
    put("rlang.infer.busy_ms", t.mean_ms("rlang.infer"));
    put("rlang.infer.rounds", t.mean("rlang.infer", "rounds"));
    let infer_ms = t.self_ms("rlang.infer");
    put(
        "rlang.infer.ms_per_round",
        crate::spans::per(infer_ms, t.sum("rlang.infer", "rounds")),
    );
    let safe = t.sum("rlang.infer", "safe") as f64;
    put(
        "rlang.infer.safe_ratio",
        crate::spans::per(safe, t.sum("rlang.infer", "sites")),
    );
    put("liveness.busy_ms", t.mean_ms("liveness"));
    // The share of the assembled compilation itself (`parser` includes
    // its own lexing), so it cannot exceed 1 the way a ratio to the
    // separately timed `prepare` can.
    let pipeline_ms: f64 = ["parser", "sema", "to_rlang", "rlang.infer", "liveness"]
        .iter()
        .map(|l| t.self_ms(l))
        .sum();
    let share = if pipeline_ms > 0.0 {
        infer_ms / pipeline_ms
    } else {
        0.0
    };
    put("prepare.infer_share", share);
}
