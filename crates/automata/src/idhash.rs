//! A fast hasher for maps keyed by interned ids.
//!
//! The composition memos and intern tables on the solver's hot path are
//! keyed by small integers the program assigns itself, so the default
//! SipHash's resistance to chosen keys buys nothing there and costs most
//! of a lookup. [`IdHasher`] is the multiply-rotate hash rustc uses for
//! its own interned ids.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-rotate hasher for integer-like keys. Not resistant to
/// chosen keys: use it only for keys the program interns itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
}

/// A `HashMap` hashed with [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
