//! Dense addr-indexed shadow memory with a spill fallback.
//!
//! Dynamic analyses keep per-address metadata: FastTrack's variable and
//! lock states, Giri's last-store event index, the interpreter's own
//! mutex table. Address-keyed `HashMap`s pay a hash and a probe on every
//! event; but the interpreter's [`Addr`] space is *dense by
//! construction* — object ids count up from zero (globals first, heap
//! allocations in order) and field offsets are small — so shadow state
//! can live in flat arrays indexed directly by `(obj, field)`.
//!
//! [`ShadowMap`] stores one lazily-grown row of values per object
//! ("pages" keyed off the `Addr` layout) and falls back to a spill
//! `HashMap` for addresses outside the dense window (huge object ids or
//! field offsets, which only adversarial programs produce).
//!
//! The map has value semantics: every address implicitly holds `empty`
//! until written, and no operation observes whether a slot was
//! materialized or which side of the window it lives on. There is
//! deliberately no iteration — its order would depend on that split.

use std::collections::HashMap;

use crate::value::Addr;

/// Object ids at or above this spill to the fallback map.
const MAX_DENSE_OBJECTS: usize = 1 << 20;
/// Field offsets at or above this spill to the fallback map.
const MAX_DENSE_FIELDS: usize = 1 << 12;

/// Dense addr-indexed shadow memory (see the module docs).
#[derive(Clone, Debug)]
pub struct ShadowMap<V> {
    /// The implicit value of every never-written address.
    empty: V,
    /// Per-object value rows, indexed by `Addr::obj` then `Addr::field`.
    rows: Vec<Vec<V>>,
    /// Fallback for addresses outside the dense window.
    spill: HashMap<Addr, V>,
}

impl<V: Clone> ShadowMap<V> {
    /// An empty shadow map in which every address holds `empty`.
    pub fn new(empty: V) -> Self {
        Self {
            empty,
            rows: Vec::new(),
            spill: HashMap::new(),
        }
    }

    #[inline]
    fn in_dense_window(a: Addr) -> bool {
        (a.obj.0 as usize) < MAX_DENSE_OBJECTS && (a.field as usize) < MAX_DENSE_FIELDS
    }

    /// The value at `a` (`empty` if never written). Never allocates.
    #[inline]
    pub fn get(&self, a: Addr) -> &V {
        if Self::in_dense_window(a) {
            self.rows
                .get(a.obj.0 as usize)
                .and_then(|row| row.get(a.field as usize))
                .unwrap_or(&self.empty)
        } else {
            self.spill.get(&a).unwrap_or(&self.empty)
        }
    }

    /// A mutable reference to the value at `a`, materializing `empty`
    /// slots on demand.
    #[inline]
    pub fn get_mut(&mut self, a: Addr) -> &mut V {
        if Self::in_dense_window(a) {
            let obj = a.obj.0 as usize;
            if self.rows.len() <= obj {
                self.rows.resize_with(obj + 1, Vec::new);
            }
            let row = &mut self.rows[obj];
            let field = a.field as usize;
            if row.len() <= field {
                row.resize(field + 1, self.empty.clone());
            }
            &mut row[field]
        } else {
            let empty = &self.empty;
            self.spill.entry(a).or_insert_with(|| empty.clone())
        }
    }

    /// Replaces the value at `a`.
    #[inline]
    pub fn insert(&mut self, a: Addr, v: V) {
        *self.get_mut(a) = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ObjId;

    fn addr(obj: u32, field: u32) -> Addr {
        Addr::new(ObjId(obj), field)
    }

    #[test]
    fn addresses_inside_and_outside_the_dense_window_read_back() {
        let probes = [
            addr(0, 0),
            addr(3, 7),
            addr(3, 8),
            addr(0x7fff_ffff, 5), // beyond the dense object window
            addr(2, (MAX_DENSE_FIELDS + 9) as u32), // beyond the dense field window
        ];
        let mut m = ShadowMap::new(0u32);
        for (i, &a) in probes.iter().enumerate() {
            assert_eq!(*m.get(a), 0);
            assert_eq!(*m.get_mut(a), 0);
            m.insert(a, i as u32 + 1);
        }
        for (i, &a) in probes.iter().enumerate() {
            assert_eq!(*m.get(a), i as u32 + 1);
            assert_eq!(*m.get_mut(a), i as u32 + 1);
        }
    }

    #[test]
    fn empty_value_is_configurable() {
        let mut m = ShadowMap::new(u32::MAX);
        assert_eq!(*m.get(addr(9, 9)), u32::MAX);
        *m.get_mut(addr(9, 9)) = 0;
        assert_eq!(*m.get(addr(9, 9)), 0);
        // Materializing one slot fills earlier slots with `empty`, not a
        // type default.
        assert_eq!(*m.get(addr(9, 3)), u32::MAX);
    }
}
