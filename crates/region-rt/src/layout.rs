//! Object type layouts.
//!
//! The RC runtime records type information at allocation time so that
//! deleting a region can scan its objects and remove the references they
//! hold into other regions (paper §3.3.2, "using type information recorded
//! when the objects were allocated"). A [`TypeLayout`] describes, for each
//! word of an object, whether it is plain data or a pointer and — for
//! pointers — which qualifier it carries, because only *unannotated*
//! pointers participate in reference counting.

/// Identifier of a registered object type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u32);

/// The qualifier carried by a pointer field (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PtrKind {
    /// No annotation: assignments maintain region reference counts
    /// (Figure 3(a)).
    #[default]
    Counted,
    /// `sameregion`: null or in the same region as the containing object.
    SameRegion,
    /// `parentptr`: null or points upwards in the region hierarchy.
    ParentPtr,
    /// `traditional`: null or points into the traditional region.
    Traditional,
}

/// One word of an object layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    /// Plain (non-pointer) data.
    Data,
    /// A pointer to a heap object, with its qualifier.
    Ptr(PtrKind),
    /// A region handle (`region` in RC). Region metadata lives outside the
    /// region heap, so handles never contribute to reference counts; they
    /// are tracked so the auditor and the GC can treat them precisely.
    RegionHandle,
}

/// Layout of one object type: a name plus the kind of every word.
///
/// # Examples
///
/// ```
/// use region_rt::layout::{TypeLayout, SlotKind, PtrKind};
/// // struct rlist { struct rlist *sameregion next; int v; }
/// let rlist = TypeLayout::new(
///     "rlist",
///     vec![SlotKind::Ptr(PtrKind::SameRegion), SlotKind::Data],
/// );
/// assert_eq!(rlist.size_words(), 2);
/// assert!(!rlist.has_counted_ptrs());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeLayout {
    name: String,
    slots: Vec<SlotKind>,
}

impl TypeLayout {
    /// Creates a layout from a slot list.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty: zero-sized heap objects are not
    /// representable (every allocation needs at least one word).
    pub fn new(name: impl Into<String>, slots: Vec<SlotKind>) -> TypeLayout {
        assert!(!slots.is_empty(), "object types must have at least one word");
        TypeLayout { name: name.into(), slots }
    }

    /// A layout of `n` plain data words (no pointers).
    pub fn data(name: impl Into<String>, n: usize) -> TypeLayout {
        TypeLayout::new(name, vec![SlotKind::Data; n.max(1)])
    }

    /// The type's name (for diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Object size in words.
    pub fn size_words(&self) -> usize {
        self.slots.len()
    }

    /// The kind of slot at word offset `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn slot(&self, i: usize) -> SlotKind {
        self.slots[i]
    }

    /// All slots in order.
    pub fn slots(&self) -> &[SlotKind] {
        &self.slots
    }

    /// Whether any slot is a counted (unannotated) pointer. Objects without
    /// counted pointers go to the `pointerfree` allocator, whose pages need
    /// not be scanned when their region is deleted (paper §3.3.1/§3.3.2).
    pub fn has_counted_ptrs(&self) -> bool {
        self.slots.iter().any(|s| matches!(s, SlotKind::Ptr(PtrKind::Counted)))
    }

    /// Word offsets of counted pointer slots (the ones the delete-time scan
    /// must visit).
    pub fn counted_ptr_offsets(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, SlotKind::Ptr(PtrKind::Counted)))
            .map(|(i, _)| i)
    }
}

/// Registry of object types known to a heap.
#[derive(Debug, Default, Clone)]
pub struct TypeTable {
    types: Vec<TypeLayout>,
}

impl TypeTable {
    /// Creates an empty table.
    pub fn new() -> TypeTable {
        TypeTable::default()
    }

    /// Registers a layout and returns its id.
    pub fn register(&mut self, layout: TypeLayout) -> TypeId {
        let id = TypeId(self.types.len() as u32);
        self.types.push(layout);
        id
    }

    /// Looks up a layout.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn get(&self, id: TypeId) -> &TypeLayout {
        &self.types[id.0 as usize]
    }

    /// Number of registered types.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether no types are registered.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointerfree_classification() {
        let t = TypeLayout::new(
            "mixed",
            vec![
                SlotKind::Data,
                SlotKind::Ptr(PtrKind::SameRegion),
                SlotKind::Ptr(PtrKind::Traditional),
                SlotKind::Ptr(PtrKind::ParentPtr),
            ],
        );
        // Annotated pointers do not force the normal allocator.
        assert!(!t.has_counted_ptrs());

        let t2 = TypeLayout::new("counted", vec![SlotKind::Data, SlotKind::Ptr(PtrKind::Counted)]);
        assert!(t2.has_counted_ptrs());
        assert_eq!(t2.counted_ptr_offsets().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn table_round_trip() {
        let mut tab = TypeTable::new();
        let a = tab.register(TypeLayout::data("a", 3));
        let b = tab.register(TypeLayout::data("b", 5));
        assert_ne!(a, b);
        assert_eq!(tab.get(a).size_words(), 3);
        assert_eq!(tab.get(b).name(), "b");
        assert_eq!(tab.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn empty_layout_rejected() {
        let _ = TypeLayout::new("zst", vec![]);
    }

    #[test]
    fn data_layout_minimum_one_word() {
        assert_eq!(TypeLayout::data("d", 0).size_words(), 1);
    }
}
