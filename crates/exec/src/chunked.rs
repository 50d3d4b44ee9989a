//! One layout for every per-job text: rows sorted by job id, each with
//! one text, held in `Arc`-shared chunks of up to 512 rows plus one text
//! buffer per chunk. Two tables use it: the log fold's job rows (the
//! text is the xRSL, [`JobRows`](crate::wal::JobRows)) and the engine's
//! record of what finished jobs printed.
//!
//! A row costs its own bytes, 8 for where its text sits, and its text:
//! no allocation of its own. A copy of a table shares its chunks; a
//! write copies each chunk it changes, in two allocations — rows and
//! texts — and only while a copy still shares it.

use std::ops::Deref;
use std::sync::Arc;

/// Rows per chunk.
const CHUNK: usize = 512;

/// How many chunks on a row landing in a full chunk may find room before
/// that chunk splits instead: each chunk it passes shifts one chunk's
/// rows and texts by one place, so a late row costs at most this many.
const SPILL: usize = 8;

/// What a [`Chunked`] table sorts its rows by: the job id.
pub trait Keyed {
    /// The row's job id.
    fn key(&self) -> u64;
}

/// A table keyed by job id whose rows are the ids themselves: the text
/// is all there is.
impl Keyed for u64 {
    fn key(&self) -> u64 {
        *self
    }
}

/// A row as a chunk holds it: the row, and where its text sits in the
/// chunk's buffer.
#[derive(Debug, Clone)]
struct Slot<R> {
    row: R,
    at: u32,
    len: u32,
}

/// Up to [`CHUNK`] rows in id order, and their texts back to back in the
/// same order: row `i`'s text ends where row `i + 1`'s begins, and the
/// buffer holds nothing else. A chunk that fills is trimmed to fit, so
/// only the last chunk of a table grown with rows at most [`SPILL`]
/// chunks out of order has slack.
#[derive(Debug, Clone)]
struct Chunk<R> {
    rows: Vec<Slot<R>>,
    text: String,
}

impl<R> Chunk<R> {
    fn new() -> Chunk<R> {
        Chunk {
            rows: Vec::with_capacity(CHUNK),
            text: String::new(),
        }
    }

    fn entry<'a>(&'a self, slot: &'a Slot<R>) -> Entry<'a, R> {
        let at = slot.at as usize;
        Entry {
            row: &slot.row,
            text: &self.text[at..at + slot.len as usize],
        }
    }

    /// Put `row` at index `i` of a chunk with room, its text between its
    /// neighbours'.
    fn insert(&mut self, i: usize, row: R, text: &str) {
        let at = self
            .rows
            .get(i)
            .map_or(self.text.len(), |next| next.at as usize);
        let needed = self.text.len() + text.len();
        // Offsets are 32-bit: 512 texts of 4 GiB exhaust memory first.
        #[expect(clippy::expect_used, reason = "held here so an offset never wraps")]
        u32::try_from(needed).expect("a chunk's texts under 4 GiB");
        if needed > self.text.capacity() {
            // Double, but not past a full chunk of texts as long as these
            // on average, and never to less than is needed: no request is
            // more than twice what the buffer held or than the chunk's
            // texts with this one.
            let full = needed / (self.rows.len() + 1) * CHUNK;
            let grown = (2 * self.text.capacity()).min(full).max(needed);
            self.text.reserve_exact(grown - self.text.len());
        }
        let len = text.len() as u32;
        self.text.insert_str(at, text);
        for later in &mut self.rows[i..] {
            later.at += len;
        }
        // A copied chunk holds what it copied: it grows to a full one.
        if self.rows.len() == self.rows.capacity() {
            self.rows.reserve_exact(CHUNK - self.rows.len());
        }
        let at = at as u32;
        self.rows.insert(i, Slot { row, at, len });
        if self.rows.len() == CHUNK {
            self.text.shrink_to_fit();
        }
    }

    /// Move the last row, its text with it, to the front of `next`.
    fn pass_last(&mut self, next: &mut Chunk<R>) {
        if let Some(last) = self.rows.pop() {
            next.insert(0, last.row, &self.text[last.at as usize..]);
            self.text.truncate(last.at as usize);
        }
    }

    /// The rows from index `i` on, texts with them, as a new chunk; this
    /// one is trimmed to what it keeps.
    fn split_off(&mut self, i: usize) -> Chunk<R> {
        let cut = self.rows[i].at;
        let mut tail = Chunk::new();
        tail.text = self.text.split_off(cut as usize);
        self.text.shrink_to_fit();
        tail.rows.extend(self.rows.drain(i..).map(|slot| Slot {
            at: slot.at - cut,
            ..slot
        }));
        tail
    }
}

/// A row of a [`Chunked`] table and its text, where the table holds
/// them. Dereferences to the row; equal rows with equal texts are equal.
#[derive(Debug, PartialEq)]
pub struct Entry<'a, R> {
    row: &'a R,
    text: &'a str,
}

impl<'a, R> Entry<'a, R> {
    /// The row's text.
    pub fn text(&self) -> &'a str {
        self.text
    }
}

impl<R> Deref for Entry<'_, R> {
    type Target = R;

    fn deref(&self) -> &R {
        self.row
    }
}

/// Rows in id order, each with one text, in chunks of up to 512 that
/// copies share. A copy shares its chunks; a write copies the chunk it
/// lands in (and any a spill passes through), and only if a copy still
/// shares it, so a table nothing shares never copies. An empty table
/// allocates nothing.
#[derive(Debug, Clone)]
pub struct Chunked<R> {
    /// No chunk is empty; every row of a chunk sorts before every row of
    /// the next. Duplicate ids (a damaged log) sit in insertion order.
    chunks: Vec<Arc<Chunk<R>>>,
}

impl<R> Default for Chunked<R> {
    fn default() -> Self {
        Chunked { chunks: Vec::new() }
    }
}

impl<R: Keyed + Clone> Chunked<R> {
    /// Bytes a row takes in its chunk, its text aside.
    pub(crate) const ROW_BYTES: usize = std::mem::size_of::<Slot<R>>();

    /// How many rows.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|chunk| chunk.rows.len()).sum()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Every row with its text, in id order.
    pub fn iter(&self) -> impl Iterator<Item = Entry<'_, R>> {
        let chunks = self.chunks.iter();
        chunks.flat_map(|chunk| chunk.rows.iter().map(|slot| chunk.entry(slot)))
    }

    /// The row keyed `key` and its text, found by binary search. (Were a
    /// damaged log to name an id twice, the row inserted last.)
    pub fn find(&self, key: u64) -> Option<Entry<'_, R>> {
        let (k, at) = self.last_up_to(key)?;
        let chunk = &self.chunks[k];
        let slot = &chunk.rows[at];
        (slot.row.key() == key).then(|| chunk.entry(slot))
    }

    /// The row keyed `key`, to change; its chunk is copied first if a
    /// copy of the table shares it. Its text stays as it is.
    pub(crate) fn find_mut(&mut self, key: u64) -> Option<&mut R> {
        let (k, at) = self.last_up_to(key)?;
        if self.chunks[k].rows[at].row.key() != key {
            return None;
        }
        Some(&mut Arc::make_mut(&mut self.chunks[k]).rows[at].row)
    }

    /// Put `row` and its text after every row whose key is not above
    /// its own. Ids are allocated in order and all but always committed
    /// in order, so for a job row this is a push: racing submitters land
    /// a few places apart, and a checkpoint written in commit order loads
    /// in id order. Outputs arrive in finish order: a long job's lands
    /// behind those of the shorter jobs submitted after it.
    pub fn insert(&mut self, row: R, text: &str) {
        let (k, at) = match self.last_up_to(row.key()) {
            // After a full chunk's greatest row: the front of the next.
            Some((k, at)) if at + 1 == CHUNK => (k + 1, 0),
            Some((k, at)) => (k, at + 1),
            None => (0, 0),
        };
        let Some(chunk) = self.chunks.get(k) else {
            let mut chunk = Chunk::new();
            chunk.insert(0, row, text);
            return self.chunks.push(Arc::new(chunk));
        };
        if chunk.rows.len() < CHUNK {
            return Arc::make_mut(&mut self.chunks[k]).insert(at, row, text);
        }
        // A full chunk passes its greatest row, text and all, to the next,
        // which passes its own on if it is full too, as far as the first
        // chunk with room or a new last one: rows up to `SPILL` chunks out
        // of order — racing submitters, jobs finishing behind shorter
        // ones — still leave every chunk but the last full.
        let room = (k + 1..=k + SPILL).find(|&j| {
            self.chunks
                .get(j)
                .is_none_or(|next| next.rows.len() < CHUNK)
        });
        let Some(room) = room else {
            // Further out of order: the chunk splits in two.
            let rows = Arc::make_mut(&mut self.chunks[k]);
            let mut tail = rows.split_off(CHUNK / 2);
            if at <= CHUNK / 2 {
                rows.insert(at, row, text);
            } else {
                tail.insert(at - CHUNK / 2, row, text);
            }
            return self.chunks.insert(k + 1, Arc::new(tail));
        };
        if room == self.chunks.len() {
            self.chunks.push(Arc::new(Chunk::new()));
        }
        for m in (k..room).rev() {
            let (head, tail) = self.chunks.split_at_mut(m + 1);
            Arc::make_mut(&mut head[m]).pass_last(Arc::make_mut(&mut tail[0]));
        }
        // In place: the chunk never outgrows its buffer.
        Arc::make_mut(&mut self.chunks[k]).insert(at, row, text);
    }

    /// Where the last row with a key up to `key` is: chunk and index.
    fn last_up_to(&self, key: u64) -> Option<(usize, usize)> {
        let k = self
            .chunks
            .partition_point(|chunk| chunk.rows[0].row.key() <= key)
            .checked_sub(1)?;
        // Chunk `k` starts at or below `key`: `at` is at least 1.
        let at = self.chunks[k]
            .rows
            .partition_point(|slot| slot.row.key() <= key);
        Some((k, at - 1))
    }
}

/// Equal rows with equal texts, however they are chunked.
impl<R: Keyed + Clone + PartialEq> PartialEq for Chunked<R> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{NamePool, RecoveredJob};
    use infogram_proto::message::JobStateCode;

    /// A row tagged `tag`: its text is the tag, after up to eight `t`s,
    /// so that texts differ in length.
    fn row(job_id: u64, tag: usize) -> (RecoveredJob, String) {
        let job = RecoveredJob {
            job_id,
            principal: NamePool::default().intern("/O=Grid/CN=Rows", "rows"),
            finished: None,
        };
        (job, format!("{}{tag}", "t".repeat(tag % 9)))
    }

    fn insert(rows: &mut Chunked<RecoveredJob>, (job, text): (RecoveredJob, String)) {
        rows.insert(job, &text);
    }

    /// Whether `rows` holds `model`'s rows and texts, in its order.
    fn same(rows: &Chunked<RecoveredJob>, model: &[(RecoveredJob, String)]) -> bool {
        rows.iter()
            .eq(model.iter().map(|(row, text)| Entry { row, text }))
    }

    /// A table of `n` rows inserted in id order, tagged with their ids.
    fn in_order(n: u64) -> Chunked<RecoveredJob> {
        let mut rows = Chunked::default();
        for id in 1..=n {
            insert(&mut rows, row(id, id as usize));
        }
        rows
    }

    /// Every chunk's texts sit back to back in row order and its buffer
    /// holds nothing else; a full chunk's buffer is trimmed to fit.
    fn texts_are_packed<R>(rows: &Chunked<R>) -> bool {
        rows.chunks.iter().all(|chunk| {
            let mut end = 0;
            let packed = chunk.rows.iter().all(|slot| {
                let next = slot.at as usize == end;
                end += slot.len as usize;
                next
            });
            let trimmed = chunk.rows.len() < CHUNK || chunk.text.capacity() == end;
            packed && end == chunk.text.len() && trimmed
        })
    }

    /// A copy shares every chunk; a write to the copy copies the one
    /// chunk it lands in — rows and texts, in two allocations — and the
    /// original sees none of it: its rows and texts are as they were.
    #[test]
    fn a_copy_shares_its_chunks_and_a_write_copies_one() {
        let a = in_order(3 * CHUNK as u64 + 7);
        let before: Vec<_> = (1..=a.len() as u64)
            .map(|id| row(id, id as usize))
            .collect();
        assert_eq!(a.chunks.len(), 4);
        assert!(a.chunks[..3].iter().all(|chunk| chunk.rows.len() == CHUNK));
        let mut b = a.clone();
        let shared = |a: &Chunked<RecoveredJob>, b: &Chunked<RecoveredJob>| -> Vec<bool> {
            let pairs = a.chunks.iter().zip(&b.chunks);
            pairs.map(|(x, y)| Arc::ptr_eq(x, y)).collect()
        };
        assert_eq!(shared(&a, &b), [true; 4]);

        b.find_mut(CHUNK as u64 + 3).unwrap().finished = Some((JobStateCode::Done, Some(0)));
        assert_eq!(shared(&a, &b), [true, false, true, true]);
        assert!(a.find(CHUNK as u64 + 3).unwrap().finished.is_none());
        let (copied, original) = (&b.chunks[1], &a.chunks[1]);
        assert!(!std::ptr::eq(copied.text.as_ptr(), original.text.as_ptr()));
        assert_eq!(copied.text, original.text);

        // A write to the tail — the next submission — copies the tail; a
        // row late at the full chunk before it copies that chunk too, and
        // moves its greatest row, text and all, to the tail.
        insert(&mut b, row(4 * CHUNK as u64, 0));
        assert_eq!(shared(&a, &b), [true, false, true, false]);
        insert(&mut b, row(3 * CHUNK as u64 - 1, 5));
        assert_eq!(shared(&a, &b), [true, false, false, false]);
        assert_eq!(b.chunks[3].rows.len(), 9);
        assert!(texts_are_packed(&b));
        assert_eq!((a.len(), b.len()), (3 * CHUNK + 7, 3 * CHUNK + 9));
        assert!(a.find(4 * CHUNK as u64).is_none());
        assert_eq!(b.find(4 * CHUNK as u64).unwrap().text(), "0");
        assert!(
            same(&a, &before),
            "a write to the copy changed the original"
        );
        assert!(texts_are_packed(&a));

        // The original, unshared again where the copy wrote, writes in
        // place.
        let mut a = a;
        drop(b);
        let before = Arc::as_ptr(&a.chunks[1]);
        a.find_mut(CHUNK as u64 + 3).unwrap().finished = Some((JobStateCode::Failed, None));
        assert_eq!(Arc::as_ptr(&a.chunks[1]), before);
    }

    /// A row a place late at a full chunk — the last, or one the next
    /// has room behind — pushes that chunk's greatest row on, its text
    /// with it, so every chunk but the last stays full and none outgrows
    /// its buffer. So does a row up to `SPILL` chunks late, through every
    /// full chunk on; one later than that splits the chunk it lands in.
    #[test]
    fn a_late_row_at_a_full_chunk_keeps_the_chunks_full() {
        let n = CHUNK as u64;
        // Job n arrives after job n + 1, which filled the last chunk; then
        // after n + 1 and n + 2, when the full chunk is no longer the last;
        // then after four full chunks and a few rows.
        let four = (n + 1..=4 * n + 10).collect();
        for arrivals in [
            vec![n + 1, n],
            vec![n + 1, n + 2, n],
            [four, vec![n]].concat(),
        ] {
            let mut rows = in_order(n - 1);
            for &id in &arrivals {
                insert(&mut rows, row(id, id as usize));
            }
            let lens: Vec<usize> = rows.chunks.iter().map(|c| c.rows.len()).collect();
            let last = (n as usize - 1 + arrivals.len()) % CHUNK;
            let mut want = vec![CHUNK; (n as usize - 1 + arrivals.len()) / CHUNK];
            want.push(last);
            assert_eq!(lens, want);
            let want: Vec<_> = (1..=n - 1 + arrivals.len() as u64)
                .map(|id| row(id, id as usize))
                .collect();
            assert!(same(&rows, &want));
            assert!(rows.chunks.iter().all(|c| c.rows.capacity() == CHUNK));
            assert!(texts_are_packed(&rows));
        }
        // Behind SPILL + 1 full chunks, none with room: a split.
        let mut rows = in_order(n - 1);
        for id in n + 1..=(SPILL as u64 + 2) * n {
            insert(&mut rows, row(id, id as usize));
        }
        insert(&mut rows, row(n, n as usize));
        let lens: Vec<usize> = rows.chunks.iter().map(|c| c.rows.len()).collect();
        assert_eq!(lens[..3], [CHUNK / 2, CHUNK / 2 + 1, CHUNK]);
        assert_eq!(lens.len(), SPILL + 3);
        assert!(texts_are_packed(&rows));
    }

    /// How ids arrive: in order; a few places out of order (racing
    /// submitters, jobs finishing a little late, and always the row that
    /// would fill a chunk after the next one); every sixteenth up to
    /// three chunks late (long jobs finishing behind short ones); fully
    /// shuffled (an old commit-order checkpoint, jobs of any length);
    /// drawn with repeats (a damaged log).
    fn ids(arrival: u8, n: usize, seed: u64) -> Vec<u64> {
        let mut x = seed | 1;
        let mut next = move |bound: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % bound as u64) as usize
        };
        let mut ids: Vec<u64> = (1..=n as u64).collect();
        match arrival {
            0 => {}
            1 => {
                for i in 1..n {
                    if next(8) == 0 {
                        let back = 1 + next(4.min(i));
                        ids.swap(i, i - back);
                    }
                }
                for i in (CHUNK..n).step_by(CHUNK) {
                    ids.swap(i - 1, i);
                }
            }
            2 => {
                let mut late: Vec<(usize, u64)> = ids
                    .iter()
                    .map(|&id| match id % 16 {
                        0 => (id as usize + next(3 * CHUNK), id),
                        _ => (id as usize, id),
                    })
                    .collect();
                late.sort_unstable();
                ids = late.into_iter().map(|(_, id)| id).collect();
            }
            3 => {
                for i in (1..n).rev() {
                    ids.swap(i, next(i + 1));
                }
            }
            _ => {
                let range = 1 + n / 3;
                ids = (0..n).map(|_| next(range) as u64).collect();
            }
        }
        ids
    }

    mod model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            /// Against a sorted `Vec`: every sequence of inserts leaves
            /// the same rows with the same texts in the same order, and
            /// `find` / `find_mut` agree with a scan for the row inserted
            /// last; texts stay packed through spills and splits.
            #[test]
            fn job_rows_are_a_sorted_vec(
                arrival in 0u8..5,
                n in 0usize..1800,
                seed in any::<u64>(),
            ) {
                let mut rows = Chunked::default();
                let mut model: Vec<(RecoveredJob, String)> = Vec::new();
                for (tag, id) in ids(arrival, n, seed).into_iter().enumerate() {
                    insert(&mut rows, row(id, tag));
                    let at = model.partition_point(|(r, _)| r.job_id <= id);
                    model.insert(at, row(id, tag));
                }
                prop_assert_eq!(rows.len(), model.len());
                prop_assert!(same(&rows, &model));
                prop_assert!(rows.chunks.iter().all(|c| !c.rows.is_empty() && c.rows.len() <= CHUNK));
                // No chunk outgrows its buffer, texts sit packed, and rows
                // arriving at most a few chunks out of order leave every
                // chunk but the last full.
                prop_assert!(rows.chunks.iter().all(|c| c.rows.capacity() == CHUNK));
                prop_assert!(texts_are_packed(&rows));
                if arrival <= 2 {
                    let full = rows.chunks.len().saturating_sub(1);
                    prop_assert!(rows.chunks[..full].iter().all(|c| c.rows.len() == CHUNK));
                }
                let top = model.last().map_or(0, |(r, _)| r.job_id);
                for id in 0..=top + 1 {
                    let want = model.iter().rev().find(|(r, _)| r.job_id == id);
                    let want = want.map(|(row, text)| Entry { row, text });
                    prop_assert_eq!(rows.find(id), want);
                    let end = Some((JobStateCode::Done, Some(id as i32)));
                    if let Some(found) = rows.find_mut(id) {
                        found.finished = end;
                    }
                    if let Some(at) = model.iter().rposition(|(r, _)| r.job_id == id) {
                        model[at].0.finished = end;
                    }
                }
                prop_assert!(same(&rows, &model));
                prop_assert!(texts_are_packed(&rows));
            }

            /// The engine's output table against a `BTreeMap`: jobs
            /// finishing in order, a few places or chunks late and in any
            /// order leave every job's own output under its id, and
            /// nothing under an id that printed nothing.
            #[test]
            fn the_output_table_is_a_map(
                arrival in 0u8..4,
                n in 0usize..1800,
                seed in any::<u64>(),
            ) {
                let mut outputs = Chunked::<u64>::default();
                let mut model = BTreeMap::new();
                for id in ids(arrival, n, seed) {
                    let text = format!("job {id} printed {}\n", "x".repeat(id as usize % 13));
                    outputs.insert(id, &text);
                    model.insert(id, text);
                }
                prop_assert_eq!(outputs.len(), model.len());
                prop_assert!(outputs.iter().map(|e| (*e, e.text())).eq(model.iter().map(|(id, text)| (*id, text.as_str()))));
                for id in 0..=n as u64 + 1 {
                    prop_assert_eq!(outputs.find(id).map(|e| e.text()), model.get(&id).map(String::as_str));
                }
                prop_assert!(texts_are_packed(&outputs));
                if arrival <= 2 {
                    let full = outputs.chunks.len().saturating_sub(1);
                    prop_assert!(outputs.chunks[..full].iter().all(|c| c.rows.len() == CHUNK));
                }
            }
        }
    }
}
