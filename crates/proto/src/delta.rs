//! Changed-attributes-only payloads for push subscriptions.
//!
//! A persistent query (`(action=subscribe)` in xRSL) streams record
//! updates to its subscribers whenever a keyword refreshes. Shipping
//! the full record on every refresh would make the push path cost the
//! same as the polling it replaces, so the wire carries a
//! [`RecordDelta`]: the attributes that changed since the previous
//! version, the names that disappeared, and the record-level
//! degraded/stale-age annotations (which must survive the push path
//! exactly as they survive a poll — a stale-served value is still
//! stale when it is pushed).
//!
//! The contract, proptested in `tests/properties.rs`: for any two
//! snapshots `prev → next`, `diff(prev, next).apply(prev)` reproduces
//! `next` byte-for-byte (field-for-field, and therefore byte-for-byte
//! through every renderer). When the delta cannot represent the
//! transition compactly — first delivery, or the provider reordered
//! its attributes — `diff` degrades to a full snapshot (`full=true`)
//! rather than approximate.

use crate::message::WireError;
use crate::record::{Attribute, InfoRecord};
use infogram_sim::wire::{put_str, put_varint, ReadError, Reader};

/// A delta failed to decode or apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaError {
    /// Explanation.
    pub reason: String,
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "delta error: {}", self.reason)
    }
}

impl std::error::Error for DeltaError {}

fn err(reason: &str) -> DeltaError {
    DeltaError {
        reason: reason.to_string(),
    }
}

/// An incremental record update: version `version` of `keyword`,
/// expressed against version `version - 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordDelta {
    /// The information keyword this delta belongs to.
    pub keyword: String,
    /// The producing host.
    pub host: String,
    /// Per-keyword version, monotonically increasing by 1 per refresh.
    /// Subscribers detect gaps (missed updates) by contiguity.
    pub version: u64,
    /// When true, `changed` holds *every* attribute of the record and
    /// `removed` is empty: the delta is a self-contained snapshot.
    /// Every subscription starts with one, so a fresh subscriber (or a
    /// resubscribe after reconnect) never needs server history.
    pub full: bool,
    /// Attributes added or modified since the previous version, in
    /// record order.
    pub changed: Vec<Attribute>,
    /// Attribute names present in the previous version but absent now.
    pub removed: Vec<String>,
    /// Record-level fault-domain annotation: the value is a stale serve.
    pub degraded: bool,
    /// Age of the stale value, if degraded.
    pub stale_age_secs: Option<f64>,
}

impl RecordDelta {
    /// Compute the delta that turns `prev` into `next`.
    ///
    /// With no `prev` (first delivery) the delta is a full snapshot.
    /// If the attribute order of the surviving attributes differs
    /// between the two snapshots, a compact delta could not reproduce
    /// `next` exactly, so the diff degrades to a full snapshot too.
    pub fn diff(prev: Option<&InfoRecord>, next: &InfoRecord, version: u64) -> RecordDelta {
        let full_snapshot = |rec: &InfoRecord| RecordDelta {
            keyword: rec.keyword.clone(),
            host: rec.host.clone(),
            version,
            full: true,
            changed: rec.attributes.clone(),
            removed: Vec::new(),
            degraded: rec.degraded,
            stale_age_secs: rec.stale_age_secs,
        };
        let Some(prev) = prev else {
            return full_snapshot(next);
        };
        // A compact delta replays as: keep prev's order for surviving
        // attributes, append genuinely new ones at the tail. If that
        // replay would not reproduce next's exact attribute order —
        // survivors reordered, or a new attribute inserted mid-record —
        // only a snapshot is faithful.
        let survives = |name: &str| next.attributes.iter().any(|a| a.name == name);
        let mut replay_order: Vec<&str> = prev
            .attributes
            .iter()
            .filter(|a| survives(&a.name))
            .map(|a| a.name.as_str())
            .collect();
        for a in &next.attributes {
            if !prev.attributes.iter().any(|p| p.name == a.name) {
                replay_order.push(a.name.as_str());
            }
        }
        let next_names: Vec<&str> = next.attributes.iter().map(|a| a.name.as_str()).collect();
        if replay_order != next_names {
            return full_snapshot(next);
        }
        let changed: Vec<Attribute> = next
            .attributes
            .iter()
            .filter(|a| prev.attributes.iter().all(|p| p != *a))
            .cloned()
            .collect();
        let removed: Vec<String> = prev
            .attributes
            .iter()
            .filter(|p| !survives(&p.name))
            .map(|p| p.name.clone())
            .collect();
        RecordDelta {
            keyword: next.keyword.clone(),
            host: next.host.clone(),
            version,
            full: false,
            changed,
            removed,
            degraded: next.degraded,
            stale_age_secs: next.stale_age_secs,
        }
    }

    /// Apply this delta to the previous snapshot, reproducing the full
    /// record. A `full` delta ignores `prev`; a compact delta requires
    /// it.
    pub fn apply(&self, prev: Option<&InfoRecord>) -> Result<InfoRecord, DeltaError> {
        let mut rec = if self.full {
            InfoRecord::new(&self.keyword, &self.host)
        } else {
            let prev = prev.ok_or_else(|| err("compact delta without a prior snapshot"))?;
            if prev.keyword != self.keyword {
                return Err(err(&format!(
                    "delta for '{}' applied to snapshot of '{}'",
                    self.keyword, prev.keyword
                )));
            }
            let mut rec = prev.clone();
            rec.host = self.host.clone();
            rec.attributes.retain(|a| !self.removed.contains(&a.name));
            rec
        };
        for attr in &self.changed {
            match rec.attributes.iter_mut().find(|a| a.name == attr.name) {
                Some(existing) => *existing = attr.clone(),
                None => rec.attributes.push(attr.clone()),
            }
        }
        rec.degraded = self.degraded;
        rec.stale_age_secs = self.stale_age_secs;
        Ok(rec)
    }

    /// Whether the delta carries no attribute changes at all (the
    /// refresh produced an identical record — still delivered, because
    /// the version must stay contiguous for gap detection).
    pub fn is_empty(&self) -> bool {
        !self.full && self.changed.is_empty() && self.removed.is_empty()
    }

    // -- binary codec ---------------------------------------------------

    /// Append the wire encoding to `buf` (used by the `Reply::Update`
    /// frame codec).
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_str(buf, &self.keyword);
        put_str(buf, &self.host);
        put_varint(buf, self.version);
        let flags = u8::from(self.full)
            | u8::from(self.degraded) << 1
            | u8::from(self.stale_age_secs.is_some()) << 2;
        buf.push(flags);
        put_f64s(buf, [self.stale_age_secs]);
        put_varint(buf, self.changed.len() as u64);
        for a in &self.changed {
            put_str(buf, &a.name);
            put_str(buf, &a.value);
            buf.push(u8::from(a.quality.is_some()) | u8::from(a.age_secs.is_some()) << 1);
            put_f64s(buf, [a.quality, a.age_secs]);
        }
        put_varint(buf, self.removed.len() as u64);
        for name in &self.removed {
            put_str(buf, name);
        }
    }

    /// Read one delta (inverse of [`Self::encode_into`]).
    fn read(r: &mut Reader<'_>) -> Result<RecordDelta, WireError> {
        let keyword = r.str("delta keyword")?.to_owned();
        let host = r.str("delta host")?.to_owned();
        let version = r.varint()?;
        let flags = r.u8("delta flags")?;
        if flags & !7 != 0 {
            return Err(crate::message::err("unknown delta flags"));
        }
        // The stale age, then the two lists: read in the order written.
        Ok(RecordDelta {
            keyword,
            host,
            version,
            full: flags & 1 != 0,
            degraded: flags & 2 != 0,
            stale_age_secs: read_f64_if(r, flags & 4 != 0, "stale age")?,
            changed: read_list(r, MIN_ATTRIBUTE_LEN, "changed attributes", |r| {
                let name = r.str("attribute name")?.to_owned();
                let value = r.str("attribute value")?.to_owned();
                let aflags = r.u8("attribute flags")?;
                if aflags & !3 != 0 {
                    return Err(crate::message::err("unknown attribute flags"));
                }
                Ok(Attribute {
                    name,
                    value,
                    quality: read_f64_if(r, aflags & 1 != 0, "quality")?,
                    age_secs: read_f64_if(r, aflags & 2 != 0, "age")?,
                })
            })?,
            removed: read_list(r, MIN_NAME_LEN, "removed names", |r| {
                Ok(r.str("removed name")?.to_owned())
            })?,
        })
    }
}

/// The fewest bytes a delta takes: two empty strings, its version and
/// flags, and two empty lists.
const MIN_DELTA_LEN: usize = 6;
/// The fewest bytes a changed attribute takes: two empty strings and its
/// flags.
const MIN_ATTRIBUTE_LEN: usize = 3;
/// The fewest bytes a removed name takes: an empty string.
const MIN_NAME_LEN: usize = 1;
/// A list reserves up front no more memory than one [`Attribute`] per
/// this many bytes left: the fewest an attribute took when its lengths
/// were `u32`s. An attribute decodes to 80 bytes from as few as 3, so a
/// claimed count is trusted no further than that before items decode.
const RESERVE_LEN: usize = 9;

/// Each present `f64`, big-endian.
fn put_f64s<const N: usize>(buf: &mut Vec<u8>, values: [Option<f64>; N]) {
    for v in values.into_iter().flatten() {
        buf.extend_from_slice(&v.to_be_bytes());
    }
}

/// A big-endian `f64`, if its flag is set.
fn read_f64_if(
    r: &mut Reader<'_>,
    present: bool,
    field: &'static str,
) -> Result<Option<f64>, ReadError> {
    Ok(if present {
        Some(f64::from_be_bytes(r.array(field)?))
    } else {
        None
    })
}

/// A varint count of items of at least `min_len` bytes each, then the
/// items. The count is held to the bytes left; room beyond
/// [`RESERVE_LEN`]'s budget grows only for items that decode.
fn read_list<'a, T>(
    r: &mut Reader<'a>,
    min_len: usize,
    field: &'static str,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let claimed = r.varint()?;
    let n = r.count(claimed, min_len, u64::MAX, field)?;
    let budget = r.remaining() / RESERVE_LEN * std::mem::size_of::<Attribute>();
    let mut items = Vec::with_capacity(n.min(budget / std::mem::size_of::<T>().max(1)));
    for _ in 0..n {
        items.push(item(r)?);
    }
    Ok(items)
}

/// Encode a batch of deltas to a standalone payload. Combined with
/// [`crate::message::update_frame`], a fan-out encodes the payload once
/// and stamps each subscriber's id into a cheap per-subscriber copy.
pub fn encode_deltas(deltas: &[RecordDelta]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(128);
    put_varint(&mut buf, deltas.len() as u64);
    for d in deltas {
        d.encode_into(&mut buf);
    }
    buf
}

/// Read a batch encoded by [`encode_deltas`].
pub(crate) fn read_deltas(r: &mut Reader<'_>) -> Result<Vec<RecordDelta>, WireError> {
    read_list(r, MIN_DELTA_LEN, "deltas", RecordDelta::read)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(vals: &[(&str, &str)]) -> InfoRecord {
        let mut rec = InfoRecord::new("Memory", "node0.grid");
        for (name, value) in vals {
            rec.push(name, value);
        }
        rec
    }

    #[test]
    fn first_delivery_is_a_full_snapshot() {
        let next = snapshot(&[("total", "4096"), ("free", "1024")]);
        let d = RecordDelta::diff(None, &next, 1);
        assert!(d.full);
        assert_eq!(d.changed.len(), 2);
        assert_eq!(d.apply(None).unwrap(), next);
    }

    #[test]
    fn compact_delta_carries_only_changes() {
        let prev = snapshot(&[("total", "4096"), ("free", "1024"), ("cached", "7")]);
        let next = snapshot(&[("total", "4096"), ("free", "512"), ("buffers", "3")]);
        let d = RecordDelta::diff(Some(&prev), &next, 2);
        assert!(!d.full);
        let names: Vec<&str> = d.changed.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, ["Memory:free", "Memory:buffers"]);
        assert_eq!(d.removed, ["Memory:cached"]);
        assert_eq!(d.apply(Some(&prev)).unwrap(), next);
    }

    #[test]
    fn unchanged_record_yields_empty_delta() {
        let prev = snapshot(&[("total", "4096")]);
        let d = RecordDelta::diff(Some(&prev), &prev, 3);
        assert!(d.is_empty());
        assert_eq!(d.apply(Some(&prev)).unwrap(), prev);
    }

    #[test]
    fn reordered_attributes_degrade_to_snapshot() {
        let prev = snapshot(&[("a", "1"), ("b", "2")]);
        let next = snapshot(&[("b", "2"), ("a", "1")]);
        let d = RecordDelta::diff(Some(&prev), &next, 2);
        assert!(d.full, "a reorder cannot be expressed compactly");
        assert_eq!(d.apply(Some(&prev)).unwrap(), next);
    }

    #[test]
    fn compact_delta_requires_prior_snapshot() {
        let prev = snapshot(&[("total", "4096")]);
        let next = snapshot(&[("total", "2048")]);
        let d = RecordDelta::diff(Some(&prev), &next, 2);
        assert!(d.apply(None).is_err());
        assert!(d
            .apply(Some(&InfoRecord::new("CPU", "node0.grid")))
            .is_err());
    }

    #[test]
    fn degraded_annotations_survive_diff_apply() {
        let prev = snapshot(&[("total", "4096")]);
        let mut next = snapshot(&[("total", "4096")]);
        next.degraded = true;
        next.stale_age_secs = Some(12.5);
        next.attributes[0].quality = Some(0.25);
        next.attributes[0].age_secs = Some(12.5);
        let d = RecordDelta::diff(Some(&prev), &next, 2);
        assert!(d.degraded);
        assert_eq!(d.stale_age_secs, Some(12.5));
        assert_eq!(d.apply(Some(&prev)).unwrap(), next);
    }

    #[test]
    fn binary_roundtrip() {
        let prev = snapshot(&[("total", "4096"), ("free", "1024")]);
        let mut next = snapshot(&[("total", "4096"), ("free", "99")]);
        next.degraded = true;
        next.stale_age_secs = Some(0.75);
        let deltas = vec![
            RecordDelta::diff(None, &prev, 1),
            RecordDelta::diff(Some(&prev), &next, 2),
        ];
        let bytes = encode_deltas(&deltas);
        let mut r = Reader::new(&bytes);
        assert_eq!(read_deltas(&mut r).unwrap(), deltas);
        r.finish().unwrap();
    }
}
