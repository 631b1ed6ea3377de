//! **tile** — text tiling/processing.
//!
//! The smallest benchmark (926 lines, only 10,459 allocations, 309 kB
//! allocated): flex-generated lexing dominates completely, so "99.98% of
//! pointer assignments executed were to annotated types" and the
//! reference-counting overhead is zero. Table 3: 84% statically safe.
//!
//! The miniature tiles a synthetic character stream into lines and pages:
//! the inner loop rotates `traditional` buffer pointers (verified flex
//! idiom), while a small number of page descriptors are allocated into a
//! document region with `sameregion` links, one of which flows through a
//! global array slot (kept as a runtime check).

use crate::{Scale, Workload};

/// The tile workload.
pub fn workload() -> Workload {
    Workload { name: "tile", description: "line/page tiling of a character stream", source }
}

/// RC source at the given scale.
pub fn source(scale: Scale) -> String {
    let chars = 2_000 * scale.0;
    format!(
        r#"
// tile: flex-style buffers + a handful of page descriptors.
struct buf {{ int pos; int chr; }};
struct page {{ int lines; int chars; struct page *sameregion prev; }};

struct buf *traditional cur;
struct buf *traditional spare;
struct page *pcache[4];
int tstate;

static void t_init() {{
    cur = ralloc(traditionalregion(), struct buf);
    spare = ralloc(traditionalregion(), struct buf);
    tstate = 12345;
}}

static int t_next() {{
    cur->pos = cur->pos + 1;
    if (cur->pos % 16 == 0) {{
        struct buf *t = cur;
        cur = spare;
        spare = t;
        cur->pos = 0;
    }}
    tstate = (tstate * 1103515245 + 12345) % 2147483647;
    if (tstate < 0) {{ tstate = -tstate; }}
    cur->chr = tstate % 96 + 32;
    return cur->chr;
}}

int main() deletes {{
    t_init();
    region doc = newregion();
    struct page *pages = null;
    int chars = {chars};
    int col = 0;
    int lines = 0;
    int pchars = 0;
    int npages = 0;
    int i;
    for (i = 0; i < chars; i = i + 1) {{
        int c = t_next();
        col = col + 1;
        pchars = pchars + 1;
        if (c % 64 == 0 || col >= 72) {{
            col = 0;
            lines = lines + 1;
            if (lines >= 40) {{
                struct page *p = ralloc(doc, struct page);
                p->lines = lines;
                p->chars = pchars;
                p->prev = pages;
                // Stash through the page cache: the reload defeats the
                // analysis but passes its runtime check.
                pcache[npages % 4] = p;
                pages = pcache[npages % 4];
                npages = npages + 1;
                lines = 0;
                pchars = 0;
            }}
        }}
    }}
    // Checksum the page chain.
    int sum = 0;
    struct page *q = pages;
    while (q != null) {{
        sum = (sum + q->lines * 100 + q->chars) % 1000003;
        q = q->prev;
    }}
    sum = (sum + npages) % 1000003;
    pages = null;
    q = null;
    pcache[0] = null;
    pcache[1] = null;
    pcache[2] = null;
    pcache[3] = null;
    deleteregion(doc);
    cur = null;
    spare = null;
    assert(sum >= 0);
    return sum;
}}
"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::smoke_all_configs;

    #[test]
    fn tile_runs_everywhere() {
        smoke_all_configs(&workload());
    }
}
