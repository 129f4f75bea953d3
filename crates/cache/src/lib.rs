//! Content-addressed artifact cache for the synthesis pipeline.
//!
//! Every expensive pipeline stage — state-space elaboration, region
//! decomposition, the monotonous-cover search, MC-reduction and
//! composed-state verification — is a *pure function* of its serialized
//! input, so its result can be memoized under a key derived from those
//! bytes. This crate provides the key algebra and two storage backends:
//!
//! * [`Key`] / [`KeyHasher`]: a 128-bit content hash built from two
//!   independent FNV-1a-style 64-bit lanes with domain separation, so
//!   different stages never collide on the same input bytes;
//! * [`MemCache`]: a sharded, byte-budgeted in-process LRU;
//! * [`DiskCache`]: a directory of checksummed entry files (`--cache-dir`)
//!   that survives across processes — a corrupted or truncated entry is
//!   *treated as a miss*, never an error;
//! * [`LayeredCache`]: memory in front of disk with promote-on-hit.
//!
//! Values are opaque byte strings; the pipeline crate owns the artifact
//! codecs. A failed decode is reported by putting nothing back — the
//! stage recomputes, so a cache can only ever change *when* work happens,
//! never *what* is produced. Cached and uncached runs are byte-identical.
//!
//! Hit/miss/eviction/byte counters are reported through `simc-obs`
//! ([`lookup`]/[`store`] record them; backends count their own
//! evictions), surfacing in `--stats`/`--stats-json` like every other
//! pipeline metric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disk;
mod mem;

use std::fmt;

pub use disk::DiskCache;
pub use mem::MemCache;

/// A 128-bit content-hash key addressing one cached artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key([u8; 16]);

impl Key {
    /// The key's raw bytes.
    pub fn bytes(&self) -> &[u8; 16] {
        &self.0
    }

    /// Lowercase hex rendering (32 characters), used for entry filenames.
    pub fn hex(&self) -> String {
        let mut out = String::with_capacity(32);
        for byte in self.0 {
            out.push_str(&format!("{byte:02x}"));
        }
        out
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// Second-lane offset: an arbitrary odd constant far from the FNV basis,
/// giving the two lanes independent trajectories over the same bytes.
const LANE2_OFFSET: u64 = 0x9e37_79b9_7f4a_7c15;

/// Streaming 128-bit FNV-1a-style hasher with domain separation.
///
/// Two 64-bit FNV-1a lanes with distinct offset bases run over the same
/// byte stream; the second lane additionally rotates its state each step
/// so the lanes do not stay affinely related. The construction is
/// deterministic across platforms and processes — keys are stable cache
/// addresses, not per-run hashes.
#[derive(Debug, Clone)]
pub struct KeyHasher {
    a: u64,
    b: u64,
}

impl KeyHasher {
    /// Starts a hash in the given domain (the stage tag, e.g.
    /// `"mcreport.v1"`). The domain is hashed first with a terminator so
    /// `("ab", "c")` and `("a", "bc")` land in different key spaces.
    pub fn new(domain: &str) -> Self {
        let mut hasher = KeyHasher { a: FNV_OFFSET, b: LANE2_OFFSET };
        hasher.update(domain.as_bytes());
        hasher.update(&[0xff]);
        hasher
    }

    /// Feeds bytes into both lanes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b.rotate_left(5) ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one integer (length-prefix framing for multi-field keys).
    pub fn update_u64(&mut self, value: u64) {
        self.update(&value.to_le_bytes());
    }

    /// Finalizes into a [`Key`] with an avalanche pass over both lanes.
    pub fn finish(&self) -> Key {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&mix(self.a ^ self.b.rotate_left(32)).to_le_bytes());
        bytes[8..].copy_from_slice(&mix(self.b ^ self.a.rotate_left(17)).to_le_bytes());
        Key(bytes)
    }
}

/// splitmix64 finalizer: spreads low-entropy FNV states across all bits.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The versioned key domains in use across the workspace, collected in
/// one place so a change to any stage's serialized artifact bumps its
/// domain here and nowhere else. Two different domains never collide
/// (the domain is hashed with a terminator before the parts).
pub mod domains {
    /// Spec text → canonical `.sg` (elaboration).
    pub const ELABORATE: &str = "elaborate.v1";
    /// Canonical `.sg` → excitation-region report.
    pub const REGIONS: &str = "regions.v1";
    /// Canonical `.sg` + target → monotonous-cover report.
    pub const MC_REPORT: &str = "mcreport.v1";
    /// Canonical `.sg` + options → CSC-reduced `.sg`.
    pub const REDUCE: &str = "reduce.v1";
    /// Canonical `.sg` + target + options → verification verdict.
    pub const VERDICT: &str = "verdict.v1";
    /// Fuzz recipe bytes → case outcome (the corpus bank).
    pub const FUZZ_RECIPE: &str = "fuzz.recipe.v1";
    /// Request body + endpoint → single-flight dedup key in `simc serve`.
    pub const SERVE_FLIGHT: &str = "serve.flight.v1";
    /// Raw request (endpoint, format, target, budgets, body bytes) →
    /// `200` response body: the `simc serve` response memo.
    pub const SERVE_RESPONSE: &str = "serve.response.v1";
    /// Canonical artifact bytes + format id + direction → converted text.
    pub const CONVERT: &str = "convert.v1";
}

/// Convenience: hashes `parts` (each length-prefixed) in `domain`.
pub fn key_of(domain: &str, parts: &[&[u8]]) -> Key {
    let mut hasher = KeyHasher::new(domain);
    for part in parts {
        hasher.update_u64(part.len() as u64);
        hasher.update(part);
    }
    hasher.finish()
}

/// A content-addressed byte store.
///
/// Implementations must be safe for concurrent use: the batch driver
/// shares one cache across worker threads. `get`/`put` never fail — a
/// backend that cannot serve a request degrades to a miss or a dropped
/// write, preserving the invariant that caching changes *when* work
/// happens, never *what* is produced.
pub trait Cache: Send + Sync {
    /// Looks up the value stored under `key`, if any.
    fn get(&self, key: &Key) -> Option<Vec<u8>>;

    /// Stores `value` under `key`, replacing any previous entry.
    fn put(&self, key: &Key, value: &[u8]);
}

/// Looks `key` up in `cache`, recording a `cache.hits`/`cache.misses`
/// observability counter. All pipeline stages go through this wrapper so
/// layered backends are counted once per logical lookup.
pub fn lookup(cache: &dyn Cache, key: &Key) -> Option<Vec<u8>> {
    let value = cache.get(key);
    match value {
        Some(_) => simc_obs::add(simc_obs::Counter::CacheHits, 1),
        None => simc_obs::add(simc_obs::Counter::CacheMisses, 1),
    }
    value
}

/// Stores `value` in `cache`, recording `cache.bytes_written`.
pub fn store(cache: &dyn Cache, key: &Key, value: &[u8]) {
    simc_obs::add(simc_obs::Counter::CacheBytesWritten, value.len() as u64);
    cache.put(key, value);
}

/// A fast cache layered over a slow one: every hit in the slow layer is
/// promoted into the fast one, and writes go to both. The CLI uses a
/// [`MemCache`] over a [`DiskCache`] when `--cache-dir` is given.
pub struct LayeredCache<F: Cache, S: Cache> {
    fast: F,
    slow: S,
}

impl<F: Cache, S: Cache> LayeredCache<F, S> {
    /// Combines `fast` (checked first) with `slow` (the durable layer).
    pub fn new(fast: F, slow: S) -> Self {
        LayeredCache { fast, slow }
    }
}

impl<F: Cache, S: Cache> Cache for LayeredCache<F, S> {
    fn get(&self, key: &Key) -> Option<Vec<u8>> {
        if let Some(value) = self.fast.get(key) {
            return Some(value);
        }
        let value = self.slow.get(key)?;
        self.fast.put(key, &value);
        Some(value)
    }

    fn put(&self, key: &Key, value: &[u8]) {
        self.fast.put(key, value);
        self.slow.put(key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_deterministic_and_domain_separated() {
        let a = key_of("stage-a", &[b"payload"]);
        let b = key_of("stage-a", &[b"payload"]);
        assert_eq!(a, b);
        assert_ne!(a, key_of("stage-b", &[b"payload"]));
        assert_ne!(a, key_of("stage-a", &[b"payloae"]));
        // Length prefixing keeps part boundaries significant.
        assert_ne!(key_of("d", &[b"ab", b"c"]), key_of("d", &[b"a", b"bc"]));
        assert_eq!(a.hex().len(), 32);
    }

    #[test]
    fn layered_promotes_slow_hits() {
        let fast = MemCache::new(1 << 16);
        let slow = MemCache::new(1 << 16);
        let key = key_of("t", &[b"x"]);
        slow.put(&key, b"value");
        let layered = LayeredCache::new(fast, slow);
        assert_eq!(layered.get(&key).as_deref(), Some(&b"value"[..]));
        // Now present in the fast layer too.
        assert_eq!(layered.fast.get(&key).as_deref(), Some(&b"value"[..]));
    }
}
