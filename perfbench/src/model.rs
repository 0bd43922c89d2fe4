//! Values the clients write, and each client's model of the keys it owns.
//!
//! Client `c` is the only writer of the keys with `key % CLIENTS == c`, so
//! its model holds the exact last acknowledged state of every owned key.
//! Every value is derived from `(key, version)`: a read of a key another
//! client owns can still be checked for carrying its own key.

/// Number of closed-loop clients (one `DbSession` each).
pub const CLIENTS: u64 = 2;

/// Value header: key (8 bytes), version (4), writer (1).
const HEADER: usize = 13;

/// The client that owns (alone writes) `key`.
pub fn owner(key: u64) -> usize {
    (key % CLIENTS) as usize
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A small seeded generator for op choice and scan starts.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(splitmix(seed))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Whether `key` is in the seeded initial data set when only about
/// `num/den` of the key space is preloaded.
pub fn preloaded(seed: u64, key: u64, num: u64, den: u64) -> bool {
    splitmix(seed ^ splitmix(key)) % den < num
}

fn filler_byte(key: u64, version: u32, i: usize) -> u8 {
    let h = splitmix(key ^ ((version as u64) << 32));
    (h >> ((i % 8) * 8)) as u8 ^ i as u8
}

/// Writes the value for `(key, version)` into `out` (`out.len()` is the
/// value length, at least the header).
pub fn encode(key: u64, version: u32, out: &mut [u8]) {
    out[..8].copy_from_slice(&key.to_le_bytes());
    out[8..12].copy_from_slice(&version.to_le_bytes());
    out[12] = owner(key) as u8;
    for (i, b) in out.iter_mut().enumerate().skip(HEADER) {
        *b = filler_byte(key, version, i);
    }
}

/// The version stored in `value` if it is a well-formed value of `key`
/// with length `len`, else a description of what is wrong.
pub fn decode(key: u64, value: &[u8], len: usize) -> Result<u32, String> {
    if value.len() != len {
        return Err(format!("key {key}: value length {} != {len}", value.len()));
    }
    let stored_key = u64::from_le_bytes(value[..8].try_into().expect("8-byte slice"));
    if stored_key != key {
        return Err(format!("key {key}: value carries key {stored_key}"));
    }
    let version = u32::from_le_bytes(value[8..12].try_into().expect("4-byte slice"));
    if value[12] as usize != owner(key)
        || value
            .iter()
            .enumerate()
            .skip(HEADER)
            .any(|(i, &b)| b != filler_byte(key, version, i))
    {
        return Err(format!(
            "key {key}: value bytes do not match version {version}"
        ));
    }
    Ok(version)
}

/// One client's record of its owned keys.
#[derive(Debug, Clone)]
pub struct Model {
    client: usize,
    /// Indexed by `key / CLIENTS`; 0 = absent, else the live version.
    versions: Vec<u32>,
    next_version: u32,
}

impl Model {
    /// Model of the owned keys in `0..key_space`, with `present(key)` ones
    /// preloaded at version 1.
    pub fn new(client: usize, key_space: u64, present: impl Fn(u64) -> bool) -> Model {
        let versions = (0..key_space.div_ceil(CLIENTS))
            .map(|slot| {
                let key = slot * CLIENTS + client as u64;
                u32::from(key < key_space && present(key))
            })
            .collect();
        Model {
            client,
            versions,
            next_version: 2,
        }
    }

    fn slot(&self, key: u64) -> usize {
        debug_assert_eq!(owner(key), self.client, "key {key} is not owned");
        (key / CLIENTS) as usize
    }

    /// The version the next put of an owned key writes.
    pub fn fresh_version(&mut self) -> u32 {
        let v = self.next_version;
        self.next_version += 1;
        v
    }

    /// Whether the owned `key` holds an acknowledged value.
    pub fn present(&self, key: u64) -> bool {
        self.versions[self.slot(key)] != 0
    }

    pub fn set(&mut self, key: u64, version: Option<u32>) {
        let slot = self.slot(key);
        self.versions[slot] = version.unwrap_or(0);
    }

    /// Checks a read of the owned `key` against the model.
    pub fn check(&self, key: u64, got: Option<&[u8]>, len: usize) -> Result<(), String> {
        let want = self.versions[self.slot(key)];
        match (want, got) {
            (0, None) => Ok(()),
            (0, Some(v)) => Err(format!(
                "key {key}: deleted, but read version {:?}",
                decode(key, v, len)
            )),
            (w, None) => Err(format!("key {key}: acknowledged version {w} is missing")),
            (w, Some(v)) => match decode(key, v, len)? {
                g if g == w => Ok(()),
                g => Err(format!("key {key}: read version {g}, acknowledged {w}")),
            },
        }
    }

    /// The owned keys in `lo..=hi`, ascending.
    pub fn owned_in(&self, lo: u64, hi: u64) -> impl Iterator<Item = u64> + '_ {
        let c = self.client as u64;
        let first = lo + (c + CLIENTS - lo % CLIENTS) % CLIENTS;
        (first..=hi)
            .step_by(CLIENTS as usize)
            .take_while(move |&k| ((k / CLIENTS) as usize) < self.versions.len())
    }

    /// Makes the model wrong about one present key (self-test of the
    /// checker). Returns the key, if any key is present.
    pub fn corrupt_one(&mut self) -> Option<u64> {
        let slot = self.versions.iter().position(|&v| v != 0)?;
        self.versions[slot] += 1;
        Some(slot as u64 * CLIENTS + self.client as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_roundtrip_and_reject_foreign_bytes() {
        let mut v = vec![0u8; 64];
        encode(42, 7, &mut v);
        assert_eq!(decode(42, &v, 64), Ok(7));
        assert!(decode(43, &v, 64).is_err());
        assert!(decode(42, &v, 65).is_err());
        v[40] ^= 1;
        assert!(decode(42, &v, 64).is_err());
    }

    #[test]
    fn model_tracks_acknowledged_state() {
        let mut m = Model::new(1, 10, |k| k < 4);
        let mut v = vec![0u8; 32];
        encode(3, 1, &mut v);
        assert_eq!(m.check(3, Some(&v), 32), Ok(()));
        assert!(m.check(5, Some(&v), 32).is_err());
        assert_eq!(m.check(5, None, 32), Ok(()));
        let ver = m.fresh_version();
        m.set(5, Some(ver));
        assert!(m.check(5, None, 32).is_err());
        m.set(3, None);
        assert!(m.check(3, Some(&v), 32).is_err());
        let owned: Vec<u64> = m.owned_in(0, 9).collect();
        assert_eq!(owned, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn corrupted_model_fails_the_check() {
        let mut m = Model::new(0, 10, |_| true);
        let key = m.corrupt_one().expect("a present key");
        let mut v = vec![0u8; 32];
        encode(key, 1, &mut v);
        assert!(m.check(key, Some(&v), 32).is_err());
    }
}
