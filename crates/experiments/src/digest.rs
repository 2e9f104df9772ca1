//! The replayability witness: an FNV-1a digest over the bytes of every
//! decision and bound a run serves, so one printed `u64` per run compares
//! whole runs across processes and thread counts.

/// FNV-1a over every byte pushed, in push order.
pub(crate) struct Digest(u64);

impl Digest {
    pub(crate) fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn push(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of everything pushed so far.
    pub(crate) fn value(&self) -> u64 {
        self.0
    }
}
