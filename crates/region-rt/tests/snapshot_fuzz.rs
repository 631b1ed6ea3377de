//! Adversarial-input fuzzing for `HeapSnapshot::from_json`.
//!
//! Starting from a valid rendered snapshot document, a SplitMix64 stream
//! derives hundreds of mutants along two axes:
//!
//! - **text-level**: truncations and byte splices of the rendered JSON —
//!   these must either fail `Json::parse` with a byte-offset-bearing
//!   message or, if they still parse, be handled by `from_json`;
//! - **document-level**: type swaps, out-of-range `-1` sentinels,
//!   deleted fields, duplicated region ids, shuffled page indices, and
//!   unsorted site keys applied to the parsed tree — these must be
//!   rejected by `from_json` with a non-empty message naming the field,
//!   or (for benign value tweaks) produce a snapshot that still renders.
//!
//! The invariant under test is *never panic, never silently accept
//! structural corruption*: every mutant either round-trips or yields a
//! descriptive `Err`. The whole test runs under `tools/panic_gate.sh`'s
//! companion rule that snapshot parsing is panic-free.

use region_rt::{Heap, HeapSnapshot, Json, SnapshotReason, TypeLayout};

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A worked heap whose snapshot exercises every document section.
fn seed_document() -> String {
    let mut h = Heap::with_defaults();
    let ty = h.register_type(TypeLayout::data("cell", 3));
    let big = h.register_type(TypeLayout::data("big", 1500));
    h.enable_spans();
    let r1 = h.new_region();
    let r2 = h.new_subregion(r1).unwrap();
    h.set_trace_site(4);
    h.ralloc(r1, ty).unwrap();
    h.ralloc(r2, big).unwrap();
    let m = h.m_alloc(ty, 2).unwrap();
    h.m_alloc(big, 1).unwrap();
    h.m_free(m).unwrap();
    let g = h.gc_alloc(ty, 2).unwrap();
    h.gc_collect(&[g.raw()]);
    h.delete_region(r2).unwrap();
    let mut snap = h.snapshot(SnapshotReason::Trap);
    snap.label = "fuzz/seed".to_string();
    snap.render()
}

/// Feeds one candidate document through parse + from_json. The contract:
/// no panic, and any `Err` carries a non-empty, descriptive message.
fn probe(text: &str) -> Result<(), String> {
    let doc = match Json::parse(text) {
        Ok(d) => d,
        Err(e) => {
            let msg = e.to_string();
            assert!(!msg.is_empty(), "parse error with empty message");
            // Json::parse reports the byte offset of the failure so a
            // corrupt artifact can be located in the file.
            assert!(
                msg.contains("byte") || msg.chars().any(|c| c.is_ascii_digit()),
                "parse error lacks a byte offset: {msg}"
            );
            return Err(msg);
        }
    };
    match HeapSnapshot::from_json(&doc) {
        Ok(snap) => {
            // Accepted documents must re-render without panicking.
            let _ = snap.render();
            Ok(())
        }
        Err(e) => {
            assert!(!e.is_empty(), "from_json error with empty message");
            Err(e)
        }
    }
}

#[test]
fn truncations_never_panic_and_report_offsets() {
    let text = seed_document();
    let mut rng = Rng::new(0xF00D);
    // Every prefix boundary drawn from the stream, plus the pathological
    // short ones.
    for cut in (0..6).chain((0..200).map(|_| rng.below(text.len()))) {
        let mutant = &text[..cut.min(text.len())];
        let _ = probe(mutant);
    }
}

#[test]
fn byte_splices_never_panic() {
    let text = seed_document();
    let mut rng = Rng::new(0xBEEF);
    let splice_bytes = [b'\0', b'{', b'}', b'[', b'-', b'"', b'9', b'x', 0xFF];
    for _ in 0..300 {
        let mut bytes = text.clone().into_bytes();
        let at = rng.below(bytes.len());
        match rng.below(3) {
            0 => {
                bytes[at] = splice_bytes[rng.below(splice_bytes.len())];
            }
            1 => {
                bytes.insert(at, splice_bytes[rng.below(splice_bytes.len())]);
            }
            _ => {
                bytes.remove(at);
            }
        }
        // Invalid UTF-8 mutants are simply skipped (the artifact layer
        // reads files as str, so parse never sees them).
        if let Ok(s) = String::from_utf8(bytes) {
            let _ = probe(&s);
        }
    }
}

/// Number of nodes in the document tree (preorder).
fn count_nodes(doc: &Json) -> usize {
    1 + match doc {
        Json::A(items) => items.iter().map(count_nodes).sum(),
        Json::O(fields) => fields.iter().map(|(_, v)| count_nodes(v)).sum(),
        _ => 0,
    }
}

/// Applies `f` to the `n`-th node in preorder, so the mutator can hit
/// arbitrary depths.
fn mutate_nth(doc: &mut Json, n: &mut usize, f: &mut dyn FnMut(&mut Json)) -> bool {
    if *n == 0 {
        f(doc);
        return true;
    }
    *n -= 1;
    match doc {
        Json::A(items) => {
            for it in items {
                if mutate_nth(it, n, f) {
                    return true;
                }
            }
        }
        Json::O(fields) => {
            for (_, v) in fields {
                if mutate_nth(v, n, f) {
                    return true;
                }
            }
        }
        _ => {}
    }
    false
}

/// Mutable access to a top-level field of an object document.
fn field_mut<'a>(doc: &'a mut Json, key: &str) -> Option<&'a mut Json> {
    match doc {
        Json::O(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

#[test]
fn document_mutations_are_rejected_or_roundtrip() {
    let text = seed_document();
    let base = Json::parse(&text).unwrap();
    assert!(HeapSnapshot::from_json(&base).is_ok(), "seed document must load");

    let mut rng = Rng::new(0xD1CE);
    let mut rejected = 0usize;
    let total = count_nodes(&base);
    for _ in 0..400 {
        let mut doc = base.clone();
        let mut n = rng.below(total);
        let kind = rng.below(6);
        let sentinel = -(rng.below(5) as i64) - 1;
        let huge = u64::MAX - rng.below(3) as u64;
        let trunc = rng.next() as usize;
        let mut apply = |node: &mut Json| match kind {
            // Type swap.
            0 => *node = Json::S("bogus".to_string()),
            // Out-of-range negative sentinel (only -1 is meaningful).
            1 => *node = Json::I(sentinel),
            // Huge value (u32 overflow probes).
            2 => *node = Json::U(huge),
            // Array/object truncation.
            3 => match node {
                Json::A(items) if !items.is_empty() => {
                    let keep = trunc % items.len();
                    items.truncate(keep);
                }
                Json::O(fields) if !fields.is_empty() => {
                    fields.remove(trunc % fields.len());
                }
                _ => *node = Json::Null,
            },
            // Duplicate an element (duplicate region ids, pages, sites).
            4 => match node {
                Json::A(items) if !items.is_empty() => {
                    let dup = items[trunc % items.len()].clone();
                    items.push(dup);
                }
                _ => *node = Json::Bool(trunc.is_multiple_of(2)),
            },
            // Null injection (this dialect never emits null).
            _ => *node = Json::Null,
        };
        mutate_nth(&mut doc, &mut n, &mut apply);
        if doc == base {
            continue;
        }
        match HeapSnapshot::from_json(&doc) {
            Ok(snap) => {
                let _ = snap.render();
            }
            Err(e) => {
                assert!(!e.is_empty());
                rejected += 1;
            }
        }
    }
    assert!(rejected > 100, "mutator too weak: only {rejected} rejections");
}

#[test]
fn structural_corruptions_are_named() {
    let text = seed_document();
    let base = Json::parse(&text).unwrap();
    let snap = HeapSnapshot::from_json(&base).unwrap();

    // Duplicate region id.
    let mut doc = snap.to_json();
    if let Some(Json::A(regions)) = field_mut(&mut doc, "regions") {
        if let Json::O(fields) = &mut regions[1] {
            fields[0].1 = Json::U(0);
        }
    }
    let err = HeapSnapshot::from_json(&doc).unwrap_err();
    assert!(err.contains("duplicate or out-of-order"), "{err}");

    // Shuffled page index.
    let mut doc = snap.to_json();
    if let Some(Json::A(pages)) = field_mut(&mut doc, "pages") {
        if let Json::O(fields) = &mut pages[0] {
            fields[0].1 = Json::U(7);
        }
    }
    let err = HeapSnapshot::from_json(&doc).unwrap_err();
    assert!(err.contains("pages must cover"), "{err}");

    // Unsorted sites.
    let mut doc = snap.to_json();
    if let Some(Json::A(sites)) = field_mut(&mut doc, "sites") {
        sites.reverse();
    }
    let err = HeapSnapshot::from_json(&doc).unwrap_err();
    assert!(err.contains("sort order"), "{err}");

    // Out-of-range sentinel: -1 means None for 'parent', but -2 is not a
    // valid encoding of anything.
    let mut doc = snap.to_json();
    if let Some(Json::A(regions)) = field_mut(&mut doc, "regions") {
        if let Json::O(fields) = &mut regions[1] {
            for (k, v) in fields.iter_mut() {
                if *k == "parent" {
                    *v = Json::I(-2);
                }
            }
        }
    }
    let err = HeapSnapshot::from_json(&doc).unwrap_err();
    assert!(err.contains("parent"), "{err}");
}
