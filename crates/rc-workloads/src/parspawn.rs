//! **parspawn** — spawn/join parallel variants of the Figure 7 workloads.
//!
//! The PLDI 2001 benchmarks are sequential programs, but their region
//! structure is embarrassingly parallel: each unit of work (a cfrac
//! factoring candidate, an lcc function, an apache request) lives in its
//! own region subtree and touches nothing else. These variants make that
//! latent parallelism explicit with `spawn`/`join`: the driver splits the
//! workload's iteration budget across `tasks` regions, spawns one task per
//! region, and each task runs a self-checking kernel (build a structure,
//! walk it, `assert` the walked checksum equals the built one) against its
//! own region subtree.
//!
//! Task bodies capture only the spawned region and `int` scalars, per the
//! spawn isolation rules, so every kernel is a global-free function taking
//! `(region, seed, iters)`. The total iteration budget is *fixed* across
//! task counts — `tasks=8` does the same work as `tasks=1`, split eight
//! ways — so wall-clock comparisons across worker counts are
//! apples-to-apples, while merged `Stats` comparisons are only meaningful
//! within one task count (a different split is a different program).

use crate::Scale;

/// Per-workload base iteration budget at `Scale(1)`, before the scale
/// multiplier. Chosen so `Scale::TINY` runs in milliseconds.
fn base_iters(name: &str) -> Option<u32> {
    Some(match name {
        "cfrac" => 60,
        "grobner" => 40,
        "mudlle" => 50,
        "lcc" => 30,
        "moss" => 80,
        "tile" => 120,
        "rc" => 40,
        "apache" => 50,
        _ => return None,
    })
}

/// The spawn/join variant of a Figure 7 workload, or `None` for an unknown
/// name. `tasks` is clamped to at least 1; the iteration budget
/// (`base × scale`) is divided evenly across tasks.
pub fn par_source(name: &str, scale: Scale, tasks: u32) -> Option<String> {
    let base = base_iters(name)?;
    let kernel = kernel_source(name)?;
    let tasks = tasks.max(1);
    let total = base * scale.0;
    let per_task = (total / tasks).max(1);

    let mut src = String::new();
    src.push_str(&format!(
        "// {name} (parallel variant): {tasks} task(s) x {per_task} iterations.\n"
    ));
    src.push_str(kernel);
    src.push_str("\nint main() deletes {\n");
    src.push_str(&format!("    int iters = {per_task};\n"));
    for t in 0..tasks {
        src.push_str(&format!("    region r{t} = newregion();\n"));
    }
    for t in 0..tasks {
        // Distinct odd seeds so shards do different work.
        let seed = 2 * t + 1;
        src.push_str(&format!(
            "    spawn r{t} {{ {name}_task(r{t}, {seed}, iters); }}\n",
            name = ident(name)
        ));
    }
    src.push_str("    join;\n");
    for t in 0..tasks {
        src.push_str(&format!("    deleteregion(r{t});\n"));
    }
    src.push_str(&format!("    return {tasks};\n}}\n"));
    Some(src)
}

/// Workload names containing characters illegal in RC identifiers.
fn ident(name: &str) -> &str {
    match name {
        "rc" => "rcc",
        other => other,
    }
}

/// The self-checking task kernel for one workload: structs plus a
/// global-free `<name>_task(region r, int seed, int iters)` function that
/// builds this workload's characteristic structure in `r`, re-walks it,
/// and asserts the checksums agree.
fn kernel_source(name: &str) -> Option<&'static str> {
    Some(match name {
        // cfrac: bignum digit chains, one short-lived subregion per
        // factoring candidate.
        "cfrac" => {
            r#"
struct digit { int v; struct digit *sameregion next; };

static int cfrac_task(region r, int seed, int iters) deletes {
    int sum = 0;
    int st = seed;
    int i;
    for (i = 0; i < iters; i = i + 1) {
        region t = newsubregion(r);
        struct digit *num = null;
        int len = st % 6 + 2;
        int built = 0;
        int j;
        for (j = 0; j < len; j = j + 1) {
            struct digit *d = ralloc(t, struct digit);
            st = (st * 1103515245 + 12345) % 2147483647;
            if (st < 0) { st = -st; }
            d->v = st % 10000;
            d->next = num;
            num = d;
            built = (built + d->v) % 1000003;
        }
        int walked = 0;
        struct digit *p = num;
        while (p != null) { walked = (walked + p->v) % 1000003; p = p->next; }
        assert(walked == built);
        sum = (sum + walked) % 1000003;
        num = null;
        p = null;
        deleteregion(t);
    }
    assert(sum >= 0);
    return sum;
}
"#
        }

        // grobner: a growing basis of polynomial nodes in the task region,
        // s-pair scratch subregions deleted after each reduction.
        "grobner" => {
            r#"
struct poly { int lead; int terms; struct poly *sameregion next; };
struct spair { int a; int b; };

static int grobner_task(region r, int seed, int iters) deletes {
    struct poly *basis = null;
    int st = seed;
    int nbasis = 0;
    int sum = 0;
    int i;
    for (i = 0; i < iters; i = i + 1) {
        region scratch = newsubregion(r);
        struct spair *sp = ralloc(scratch, struct spair);
        st = (st * 1103515245 + 12345) % 2147483647;
        if (st < 0) { st = -st; }
        sp->a = st % 97;
        sp->b = (st / 97) % 89;
        int reduced = (sp->a * 89 + sp->b) % 1000003;
        sp = null;
        deleteregion(scratch);
        if (reduced % 3 == 0) {
            struct poly *p = ralloc(r, struct poly);
            p->lead = reduced;
            p->terms = reduced % 7 + 1;
            p->next = basis;
            basis = p;
            nbasis = nbasis + 1;
        }
        sum = (sum + reduced) % 1000003;
    }
    int walked = 0;
    struct poly *q = basis;
    while (q != null) {
        walked = walked + 1;
        assert(q->terms >= 1);
        q = q->next;
    }
    assert(walked == nbasis);
    return sum;
}
"#
        }

        // mudlle: an interpreter loop, one short-lived evaluation region
        // per expression holding a small chain of value cells.
        "mudlle" => {
            r#"
struct value { int tag; int payload; struct value *sameregion link; };

static int mudlle_task(region r, int seed, int iters) deletes {
    int st = seed;
    int sum = 0;
    int i;
    for (i = 0; i < iters; i = i + 1) {
        region eval = newsubregion(r);
        struct value *stack = null;
        int depth = st % 5 + 1;
        int built = 0;
        int j;
        for (j = 0; j < depth; j = j + 1) {
            struct value *v = ralloc(eval, struct value);
            st = (st * 1103515245 + 12345) % 2147483647;
            if (st < 0) { st = -st; }
            v->tag = st % 4;
            v->payload = st % 1009;
            v->link = stack;
            stack = v;
            built = (built + v->payload) % 1000003;
        }
        int walked = 0;
        struct value *p = stack;
        while (p != null) { walked = (walked + p->payload) % 1000003; p = p->link; }
        assert(walked == built);
        sum = (sum + walked) % 1000003;
        stack = null;
        p = null;
        deleteregion(eval);
    }
    return sum;
}
"#
        }

        // lcc: per-function compile regions — a subregion of statement
        // nodes built, counted, and bulk-freed for every function.
        "lcc" => {
            r#"
struct stmtnode { int op; int size; struct stmtnode *sameregion next; };

static int lcc_task(region r, int seed, int iters) deletes {
    int st = seed;
    int code = 0;
    int i;
    for (i = 0; i < iters; i = i + 1) {
        region func = newsubregion(r);
        struct stmtnode *body = null;
        int nstmts = st % 8 + 3;
        int emitted = 0;
        int j;
        for (j = 0; j < nstmts; j = j + 1) {
            struct stmtnode *s = ralloc(func, struct stmtnode);
            st = (st * 1103515245 + 12345) % 2147483647;
            if (st < 0) { st = -st; }
            s->op = st % 16;
            s->size = s->op + 1;
            s->next = body;
            body = s;
            emitted = emitted + s->size;
        }
        int walked = 0;
        struct stmtnode *p = body;
        while (p != null) { walked = walked + p->size; p = p->next; }
        assert(walked == emitted);
        code = (code + walked) % 1000003;
        body = null;
        p = null;
        deleteregion(func);
    }
    return code;
}
"#
        }

        // moss: passage fingerprints accumulated into hash chains that
        // live for the whole run — the one kernel with no deletion.
        "moss" => {
            r#"
struct passage { int hash; int doc; struct passage *sameregion chain; };

static int moss_task(region r, int seed, int iters) {
    struct passage *bucket0 = null;
    struct passage *bucket1 = null;
    int st = seed;
    int built = 0;
    int n0 = 0;
    int i;
    for (i = 0; i < iters; i = i + 1) {
        st = (st * 1103515245 + 12345) % 2147483647;
        if (st < 0) { st = -st; }
        struct passage *p = ralloc(r, struct passage);
        p->hash = st % 65536;
        p->doc = st % 31;
        if (p->hash % 2 == 0) {
            p->chain = bucket0;
            bucket0 = p;
            n0 = n0 + 1;
        } else {
            p->chain = bucket1;
            bucket1 = p;
        }
        built = (built + p->hash) % 1000003;
    }
    int walked = 0;
    int c0 = 0;
    struct passage *q = bucket0;
    while (q != null) { walked = (walked + q->hash) % 1000003; c0 = c0 + 1; q = q->chain; }
    q = bucket1;
    while (q != null) { walked = (walked + q->hash) % 1000003; q = q->chain; }
    assert(c0 == n0);
    assert(walked == built);
    return walked;
}
"#
        }

        // tile: buffer rotation in a scratch subregion plus a chain of
        // page descriptors in the task region.
        "tile" => {
            r#"
struct tbuf { int pos; int chr; };
struct tpage { int lines; int chars; struct tpage *sameregion prev; };

static int tile_task(region r, int seed, int iters) deletes {
    region scratch = newsubregion(r);
    struct tbuf *cur = ralloc(scratch, struct tbuf);
    struct tbuf *spare = ralloc(scratch, struct tbuf);
    struct tpage *pages = null;
    int st = seed;
    int lines = 0;
    int pchars = 0;
    int npages = 0;
    int i;
    for (i = 0; i < iters; i = i + 1) {
        cur->pos = cur->pos + 1;
        if (cur->pos % 16 == 0) {
            struct tbuf *t = cur;
            cur = spare;
            spare = t;
            cur->pos = 0;
        }
        st = (st * 1103515245 + 12345) % 2147483647;
        if (st < 0) { st = -st; }
        cur->chr = st % 96 + 32;
        pchars = pchars + 1;
        if (cur->chr % 8 == 0) {
            lines = lines + 1;
            if (lines >= 4) {
                struct tpage *p = ralloc(r, struct tpage);
                p->lines = lines;
                p->chars = pchars;
                p->prev = pages;
                pages = p;
                npages = npages + 1;
                lines = 0;
                pchars = 0;
            }
        }
    }
    int walked = 0;
    struct tpage *q = pages;
    while (q != null) { walked = walked + 1; assert(q->lines >= 1); q = q->prev; }
    assert(walked == npages);
    cur = null;
    spare = null;
    deleteregion(scratch);
    return npages;
}
"#
        }

        // rc (the compiler compiling itself): AST nodes with child chains,
        // one subregion per top-level declaration.
        "rc" => {
            r#"
struct astnode { int kind; int children; struct astnode *sameregion sib; };

static int rcc_task(region r, int seed, int iters) deletes {
    int st = seed;
    int sum = 0;
    int i;
    for (i = 0; i < iters; i = i + 1) {
        region decl = newsubregion(r);
        struct astnode *kids = null;
        st = (st * 1103515245 + 12345) % 2147483647;
        if (st < 0) { st = -st; }
        int n = st % 6 + 1;
        int j;
        for (j = 0; j < n; j = j + 1) {
            struct astnode *c = ralloc(decl, struct astnode);
            c->kind = (st + j) % 12;
            c->children = 0;
            c->sib = kids;
            kids = c;
        }
        struct astnode *root = ralloc(decl, struct astnode);
        root->kind = 0;
        root->children = n;
        root->sib = kids;
        int walked = 0;
        struct astnode *p = root->sib;
        while (p != null) { walked = walked + 1; p = p->sib; }
        assert(walked == root->children);
        sum = (sum + walked) % 1000003;
        kids = null;
        root = null;
        p = null;
        deleteregion(decl);
    }
    return sum;
}
"#
        }

        // apache: a connection region per task, one request subregion per
        // iteration freed after the response is "sent".
        "apache" => {
            r#"
struct header { int key; int val; struct header *sameregion next; };
struct conn { int requests; int bytes; };

static int apache_task(region r, int seed, int iters) deletes {
    struct conn *c = ralloc(r, struct conn);
    int st = seed;
    int i;
    for (i = 0; i < iters; i = i + 1) {
        region req = newsubregion(r);
        struct header *hdrs = null;
        st = (st * 1103515245 + 12345) % 2147483647;
        if (st < 0) { st = -st; }
        int nh = st % 5 + 2;
        int built = 0;
        int j;
        for (j = 0; j < nh; j = j + 1) {
            struct header *h = ralloc(req, struct header);
            h->key = j;
            h->val = (st + j) % 509;
            h->next = hdrs;
            hdrs = h;
            built = (built + h->val) % 1000003;
        }
        int walked = 0;
        struct header *p = hdrs;
        while (p != null) { walked = (walked + p->val) % 1000003; p = p->next; }
        assert(walked == built);
        c->requests = c->requests + 1;
        c->bytes = (c->bytes + walked) % 1000003;
        hdrs = null;
        p = null;
        deleteregion(req);
    }
    assert(c->requests == iters);
    return c->bytes;
}
"#
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_lang::interp::{prepare, run_audited, Outcome};
    use rc_lang::RunConfig;

    /// Every parallel variant compiles, passes its self-checks, and leaves
    /// a clean merged heap, sequentially and under the deterministic
    /// scheduler.
    #[test]
    fn parallel_variants_run_clean() {
        for w in crate::all() {
            for tasks in [1, 3] {
                let src = par_source(w.name, Scale::TINY, tasks)
                    .unwrap_or_else(|| panic!("{}: no parallel variant", w.name));
                let c = prepare(&src).unwrap_or_else(|e| {
                    panic!("{}: parallel variant does not compile: {e}", w.name)
                });
                for cfg in [RunConfig::rc_inf(), RunConfig::rc_inf().det_sched(5)] {
                    let r = run_audited(&c, &cfg);
                    if let Some(Err(e)) = &r.audit {
                        panic!("{}/{tasks}: audit failed: {e}", w.name);
                    }
                    assert_eq!(
                        r.outcome,
                        Outcome::Exit(i64::from(tasks)),
                        "{}/{tasks} tasks",
                        w.name
                    );
                    assert_eq!(r.handoffs.len(), tasks as usize, "{}", w.name);
                }
            }
        }
    }

    /// The iteration budget is fixed across task counts: total allocations
    /// differ only by the per-task remainder, never by a task multiple.
    #[test]
    fn budget_is_split_not_multiplied() {
        let one = par_source("moss", Scale::SMALL, 1).unwrap();
        let four = par_source("moss", Scale::SMALL, 4).unwrap();
        let cfg = RunConfig::lea();
        let r1 = run_audited(&prepare(&one).unwrap(), &cfg);
        let r4 = run_audited(&prepare(&four).unwrap(), &cfg);
        // moss allocates one passage per iteration (640 at this scale), so
        // the totals differ only by per-task descriptor overhead, never by
        // anything close to a 4x multiple.
        assert!(r1.stats.objects_allocated >= 640);
        let extra = r4.stats.objects_allocated - r1.stats.objects_allocated;
        assert!(extra < 40, "4-way split added {extra} objects");
    }
}
