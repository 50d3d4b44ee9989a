//! Seeded input generators.
//!
//! The benchmark seed drives three things and nothing else: the PKI, the
//! sixteen-keyword attribute fixture behind `info_wide`, and every
//! client's request sequence. The service only ever sees what is
//! generated here. [`Digest`] hashes the generated inputs so two runs can
//! prove they measured the same requests.

use infogram_sim::SplitMix64;

/// The four Table 1 keywords that have a TTL (and therefore a cache).
pub const TTL_KEYWORDS: [&str; 4] = ["Date", "Memory", "CPU", "list"];
/// `info_refresh` adds Table 1's TTL-0 keyword.
pub const REFRESH_KEYWORDS: [&str; 5] = ["Date", "Memory", "CPU", "list", "CPULoad"];
/// Keywords in the `info_wide` fixture.
pub const WIDE_KEYWORDS: usize = 16;
/// Attributes per fixture keyword.
pub const WIDE_ATTRS: usize = 24;
/// Value length of every fixture attribute. Fixed, so reply sizes (and
/// `wire_bytes_per_op`) do not depend on the seed.
pub const WIDE_VALUE_LEN: usize = 24;
/// The one job every `job_submit` iteration submits: 1 ms of simulated work.
pub const JOB_RSL: &str = "(executable=simwork)(arguments=1)";

/// Independent sub-seeds, one per seeded concern, in a fixed order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// Certificate authority, user and service credentials.
    pub pki: u64,
    /// Simulated host models (CPU load, memory).
    pub host: u64,
    /// `info_wide` attribute fixture.
    pub fixture: u64,
    /// Base for per-client request sequences.
    pub clients: u64,
}

impl Seeds {
    /// Split the benchmark seed.
    pub fn split(seed: u64) -> Seeds {
        let mut rng = SplitMix64::new(seed);
        Seeds {
            pki: rng.next_u64(),
            host: rng.next_u64(),
            fixture: rng.next_u64(),
            clients: rng.next_u64(),
        }
    }

    /// The request-sequence seed of client `i`.
    pub fn client(&self, i: usize) -> u64 {
        SplitMix64::new(self.clients ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
    }
}

/// Name of fixture keyword `i`: `K00` … `K15`.
pub fn wide_keyword(i: usize) -> String {
    format!("K{i:02}")
}

/// One fixture file: the keyword it backs, its path on the simulated
/// host's filesystem, and its `attr: value` lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WideFile {
    /// `K00` … `K15`.
    pub keyword: String,
    /// `/bench/k00` … — what the keyword's `cat` command reads.
    pub path: String,
    /// [`WIDE_ATTRS`] lines of `aNN: <value>`.
    pub content: String,
}

/// The sixteen-keyword fixture for a seed.
pub fn wide_fixture(seed: u64) -> Vec<WideFile> {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    let mut rng = SplitMix64::new(seed);
    (0..WIDE_KEYWORDS)
        .map(|k| {
            let mut content = String::with_capacity(WIDE_ATTRS * (WIDE_VALUE_LEN + 6));
            for a in 0..WIDE_ATTRS {
                content.push_str(&format!("a{a:02}: "));
                for _ in 0..WIDE_VALUE_LEN {
                    content.push(ALPHABET[rng.below(ALPHABET.len() as u64) as usize] as char);
                }
                content.push('\n');
            }
            WideFile {
                keyword: wide_keyword(k),
                path: format!("/bench/k{k:02}"),
                content,
            }
        })
        .collect()
}

/// `n` uniform draws from `0..choices` — one client's keyword sequence.
pub fn draws(seed: u64, choices: u8, n: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.below(choices as u64) as u8).collect()
}

/// FNV-1a over everything a run generated from its seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold bytes in.
    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a string in, with a terminator so `"ab","c"` ≠ `"a","bc"`.
    pub fn update_str(&mut self, s: &str) {
        self.update(s.as_bytes());
        self.update(&[0xff]);
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_stable_and_distinct() {
        assert_eq!(Seeds::split(7), Seeds::split(7));
        assert_ne!(Seeds::split(7), Seeds::split(8));
        let s = Seeds::split(7);
        assert_ne!(s.pki, s.fixture);
        assert_ne!(s.client(0), s.client(1));
        assert_eq!(s.client(1), Seeds::split(7).client(1));
    }

    #[test]
    fn fixture_shape_is_fixed_and_content_is_seeded() {
        let a = wide_fixture(1);
        assert_eq!(a.len(), WIDE_KEYWORDS);
        assert_eq!(a[0].keyword, "K00");
        assert_eq!(a[15].keyword, "K15");
        assert_eq!(a[3].path, "/bench/k03");
        for f in &a {
            assert_eq!(f.content.lines().count(), WIDE_ATTRS);
            for (i, line) in f.content.lines().enumerate() {
                let (name, value) = line.split_once(": ").unwrap();
                assert_eq!(name, format!("a{i:02}"));
                assert_eq!(value.len(), WIDE_VALUE_LEN);
            }
        }
        assert_eq!(a, wide_fixture(1));
        assert_ne!(a, wide_fixture(2));
        // Same total size for every seed: reply bytes do not move with it.
        let size = |fx: &[WideFile]| fx.iter().map(|f| f.content.len()).sum::<usize>();
        assert_eq!(size(&a), size(&wide_fixture(2)));
    }

    #[test]
    fn draws_are_seeded_uniform_and_in_range() {
        let a = draws(42, 4, 40_000);
        assert_eq!(a, draws(42, 4, 40_000));
        assert_ne!(a, draws(43, 4, 40_000));
        let mut counts = [0usize; 4];
        for d in &a {
            counts[*d as usize] += 1;
        }
        for c in counts {
            assert!((9_000..11_000).contains(&c), "{counts:?}");
        }
        assert!(draws(1, 5, 1000).iter().all(|d| *d < 5));
    }

    #[test]
    fn digest_separates_inputs() {
        let hex = |parts: &[&str]| {
            let mut d = Digest::default();
            for p in parts {
                d.update_str(p);
            }
            d.hex()
        };
        assert_eq!(hex(&["ab", "c"]), hex(&["ab", "c"]));
        assert_ne!(hex(&["ab", "c"]), hex(&["a", "bc"]));
        assert_ne!(hex(&["x"]), hex(&["y"]));
        assert_eq!(Digest::default().hex().len(), 16);
    }
}
