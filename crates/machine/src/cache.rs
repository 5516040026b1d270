//! A simple L1 data-cache model (capacity + line size, LRU).
//!
//! The L1 capacity effects are responsible for the performance drops the
//! paper observes once working sets exceed L1 (e.g. Fig. 5.1(b) past
//! n = 695 on Atom, Fig. 5.8 past n ≈ 3000, and the early drops on
//! ARM1176's 16 KB cache, §5.5).

use std::collections::HashMap;

/// Line indices from this one on keep their slots in a map, so a trace
/// with a huge address cannot size a table (the table holds 4 bytes per
/// line below it).
const DENSE_LINES: usize = 1 << 20;

/// LRU cache over line addresses.
///
/// Each resident line holds a slot with the stamp of its last use (stamps
/// are unique and increasing, so the least recently used line is the one
/// with the smallest stamp). A table indexed by line gives each resident
/// line's slot; the simulator's compact layouts keep it small, and lines
/// above a size bound live in a map. A miss on a full cache evicts the
/// smallest stamp, found by one scan over the contiguous stamps.
#[derive(Clone, Debug)]
pub(crate) struct L1Cache {
    line_bytes: usize,
    capacity_lines: usize,
    /// Slot plus one per line below [`DENSE_LINES`]; 0 = not resident.
    dense: Vec<u32>,
    /// Slot plus one per resident line from [`DENSE_LINES`] on.
    sparse: HashMap<usize, u32>,
    /// Per slot: the resident line.
    lines: Vec<usize>,
    /// Per slot: the line's last-use stamp.
    stamps: Vec<u64>,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl L1Cache {
    /// Creates a cache of `capacity_bytes` with `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if sizes are zero or the capacity is smaller than one line.
    pub fn new(capacity_bytes: usize, line_bytes: usize) -> Self {
        assert!(line_bytes > 0 && capacity_bytes >= line_bytes);
        L1Cache {
            line_bytes,
            capacity_lines: capacity_bytes / line_bytes,
            dense: Vec::new(),
            sparse: HashMap::new(),
            lines: Vec::new(),
            stamps: Vec::new(),
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Makes lines `0..lines` resident, as touching them in order on the
    /// empty cache would, but counting neither hits nor misses.
    ///
    /// # Panics
    ///
    /// Panics if the cache is not empty or cannot hold `lines`.
    pub(crate) fn prefill(&mut self, lines: usize) {
        assert!(self.lines.is_empty() && lines <= self.capacity_lines);
        let slots = u32::try_from(lines).expect("slot fits u32");
        self.lines.extend(0..lines);
        self.stamps.extend(1..=lines as u64);
        self.dense.extend(1..=slots);
        self.stamp = lines as u64;
    }

    /// Touches `bytes` at `addr`; returns `(missed_lines,
    /// crossed_line_boundary)`.
    pub fn access(&mut self, addr: usize, bytes: usize) -> (u32, bool) {
        let first = addr / self.line_bytes;
        let last = (addr + bytes.max(1) - 1) / self.line_bytes;
        let mut missed = 0;
        for line in first..=last {
            self.stamp += 1;
            if let Some(slot) = self.slot_of(line) {
                self.hits += 1;
                self.stamps[slot] = self.stamp;
                continue;
            }
            missed += 1;
            self.misses += 1;
            let slot = if self.lines.len() < self.capacity_lines {
                self.lines.push(line);
                self.stamps.push(self.stamp);
                self.lines.len() - 1
            } else {
                let lru = (0..self.stamps.len())
                    .min_by_key(|&s| self.stamps[s])
                    .expect("a full cache holds a line");
                self.set_slot(self.lines[lru], None);
                self.lines[lru] = line;
                self.stamps[lru] = self.stamp;
                lru
            };
            self.set_slot(line, Some(slot));
        }
        (missed, last != first)
    }

    fn slot_of(&self, line: usize) -> Option<usize> {
        let slot = if line < DENSE_LINES {
            self.dense.get(line).copied().unwrap_or(0)
        } else {
            self.sparse.get(&line).copied().unwrap_or(0)
        };
        (slot as usize).checked_sub(1)
    }

    /// Records a line's slot; `None` evicts the line.
    fn set_slot(&mut self, line: usize, slot: Option<usize>) {
        // A slot is below the capacity in lines, so it fits a `u32` for
        // any cache smaller than 2^32 lines.
        let v = slot.map_or(0, |s| u32::try_from(s + 1).expect("slot fits u32"));
        if line < DENSE_LINES {
            if self.dense.len() <= line {
                self.dense.resize(line + 1, 0);
            }
            self.dense[line] = v;
        } else if v == 0 {
            self.sparse.remove(&line);
        } else {
            self.sparse.insert(line, v);
        }
    }

    /// Hit count since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of resident lines.
    #[cfg(test)]
    pub(crate) fn resident_lines(&self) -> usize {
        self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_then_hits() {
        let mut c = L1Cache::new(1024, 64);
        assert_eq!(c.access(0, 16), (1, false));
        assert_eq!(c.access(16, 16), (0, false));
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn line_crossing_is_flagged() {
        let mut c = L1Cache::new(1024, 64);
        let (miss, crossed) = c.access(60, 16); // spans lines 0 and 1
        assert_eq!(miss, 2);
        assert!(crossed);
    }

    #[test]
    fn capacity_eviction_is_lru() {
        let mut c = L1Cache::new(128, 64); // 2 lines
        c.access(0, 4); // line 0
        c.access(64, 4); // line 1
        c.access(0, 4); // refresh line 0
        c.access(128, 4); // line 2 evicts line 1 (LRU)
        assert_eq!(c.resident_lines(), 2);
        let (miss, _) = c.access(0, 4);
        assert_eq!(miss, 0, "line 0 must have survived");
        let (miss, _) = c.access(64, 4);
        assert_eq!(miss, 1, "line 1 must have been evicted");
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = L1Cache::new(1024, 64); // 16 lines
                                            // Stream 32 lines twice: second pass still misses everything.
        for _ in 0..2 {
            for i in 0..32 {
                c.access(i * 64, 4);
            }
        }
        assert_eq!(c.misses(), 64);
    }

    #[test]
    fn prefill_equals_touching_the_lines_in_order() {
        let mut touched = L1Cache::new(8 * 64, 64);
        for line in 0..6 {
            touched.access(line * 64, 4);
        }
        let mut filled = L1Cache::new(8 * 64, 64);
        filled.prefill(6);
        assert_eq!((filled.hits(), filled.misses()), (0, 0));
        // Same residency and LRU order: two new lines fill the cache and
        // a third evicts line 0 in both.
        for c in [&mut touched, &mut filled] {
            for line in [6, 7, 8, 0] {
                c.access(line * 64, 4);
            }
        }
        assert_eq!(filled.misses(), 4);
        assert_eq!(touched.misses(), 6 + 4);
        assert_eq!(filled.resident_lines(), 8);
    }

    #[test]
    fn evictions_match_a_reference_lru_on_dense_and_sparse_lines() {
        // The reference: stamps in a map, evict the smallest on overflow.
        let mut reference: HashMap<usize, u64> = HashMap::new();
        let mut c = L1Cache::new(8 * 64, 64); // 8 lines
        let mut x = 0x2545_f491_u64;
        for stamp in 1..=4000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // A hot band of 12 lines, plus lines far above the table.
            let line = match x % 5 {
                0 => DENSE_LINES + (x >> 8) as usize % 6,
                _ => (x >> 8) as usize % 12,
            };
            let expect_miss = reference.insert(line, stamp).is_none();
            if reference.len() > 8 {
                let (&lru, _) = reference.iter().min_by_key(|(_, &s)| s).unwrap();
                reference.remove(&lru);
            }
            assert_eq!(c.access(line * 64, 4).0 == 1, expect_miss, "access {stamp}");
            assert_eq!(c.resident_lines(), reference.len());
        }
    }
}
