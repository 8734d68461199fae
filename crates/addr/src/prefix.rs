//! [`Prefix`]: bit-granularity CIDR prefixes.
//!
//! Routed-prefix grouping (§6.1 of the paper) and /96-granularity alias
//! detection (§6.2) both operate on CIDR prefixes. Unlike [`Range`], a
//! prefix is bit-aligned, not nybble-aligned: the paper notes (§4.2) that
//! operators announce prefixes longer than /64 and that a TGA must not
//! assume standard alignments, so arbitrary lengths `0..=128` are supported.

use crate::address::NybbleAddr;
use crate::error::{AddrParseError, ParseErrorKind};
use crate::nybble::NybbleSet;
use crate::range::Range;
use core::str::FromStr;

/// An IPv6 CIDR prefix: a network address and a length in bits.
///
/// The stored address is always masked to the prefix length (host bits are
/// zero), so two `Prefix` values compare equal iff they denote the same
/// network.
///
/// ```
/// use sixgen_addr::Prefix;
/// let p: Prefix = "2001:db8::/32".parse().unwrap();
/// assert!(p.contains("2001:db8:1234::1".parse().unwrap()));
/// assert!(!p.contains("2001:db9::1".parse().unwrap()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix {
    /// Network bits, host bits zeroed. Ordered before `len` so that the
    /// derived lexicographic `Ord` sorts by network address first.
    network: NybbleAddr,
    len: u8,
}

impl Prefix {
    /// The zero-length prefix covering the whole address space.
    pub const DEFAULT: Prefix = Prefix {
        network: NybbleAddr::UNSPECIFIED,
        len: 0,
    };

    /// Creates a prefix, masking `addr` down to `len` bits.
    ///
    /// # Panics
    /// Panics if `len > 128`.
    pub fn new(addr: NybbleAddr, len: u8) -> Prefix {
        assert!(len <= 128, "prefix length out of range: {len}");
        Prefix {
            network: NybbleAddr::from_bits(addr.bits() & Self::mask(len)),
            len,
        }
    }

    /// The network-bits mask for a given length.
    #[inline]
    fn mask(len: u8) -> u128 {
        if len == 0 {
            0
        } else {
            u128::MAX << (128 - len as u32)
        }
    }

    /// The network address (host bits zero).
    #[inline]
    pub fn network(&self) -> NybbleAddr {
        self.network
    }

    /// The prefix length in bits. (`len` is CIDR terminology, not a
    /// container size — there is deliberately no `is_empty`; a prefix is
    /// never empty.)
    #[inline]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, addr: NybbleAddr) -> bool {
        (addr.bits() & Self::mask(self.len)) == self.network.bits()
    }

    /// `true` if every address of `other` lies within `self`.
    pub fn covers(&self, other: &Prefix) -> bool {
        self.len <= other.len && self.contains(other.network)
    }

    /// The number of addresses in the prefix, saturating at `u128::MAX` for
    /// the default prefix (2¹²⁸ addresses).
    pub fn size(&self) -> u128 {
        if self.len == 0 {
            u128::MAX
        } else {
            1u128
                .checked_shl(128 - self.len as u32)
                .unwrap_or(u128::MAX)
        }
    }

    /// The enclosing prefix containing `addr` at length `len` — shorthand
    /// for `Prefix::new(addr, len)` reading as "the /len of this address".
    pub fn of(addr: NybbleAddr, len: u8) -> Prefix {
        Prefix::new(addr, len)
    }

    /// A uniformly random address of the prefix: one `u128` draw fills
    /// its host bits, and a /128, whose only address is its network,
    /// draws nothing.
    pub fn random_address<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> NybbleAddr {
        if self.len == 128 {
            return self.network;
        }
        let noise: u128 = rng.gen();
        NybbleAddr::from_bits(self.network.bits() | (noise & !Self::mask(self.len)))
    }

    /// Converts to a [`Range`] if the length is nybble-aligned (a multiple
    /// of four bits); the dynamic tail nybbles become full wildcards.
    /// Returns `None` for non-aligned lengths, which cannot be represented
    /// as a per-nybble rectangle exactly.
    pub fn to_range(&self) -> Option<Range> {
        if !self.len.is_multiple_of(4) {
            return None;
        }
        let fixed = self.len as usize / 4;
        let mut sets = [NybbleSet::FULL; crate::nybble::NYBBLE_COUNT];
        for (i, set) in sets.iter_mut().enumerate().take(fixed) {
            *set = NybbleSet::single(self.network.nybble(i));
        }
        Some(Range::from_sets(sets))
    }
}

impl FromStr for Prefix {
    type Err = AddrParseError;

    /// Parses `address/len` CIDR notation.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_text, len_text) = s
            .split_once('/')
            .ok_or_else(|| AddrParseError::new(ParseErrorKind::InvalidPrefixLength, s))?;
        let addr: NybbleAddr = addr_text
            .parse()
            .map_err(|_| AddrParseError::invalid_address(s))?;
        let len: u8 = len_text
            .parse()
            .map_err(|_| AddrParseError::new(ParseErrorKind::InvalidPrefixLength, s))?;
        if len > 128 {
            return Err(AddrParseError::new(ParseErrorKind::InvalidPrefixLength, s));
        }
        Ok(Prefix::new(addr, len))
    }
}

impl core::fmt::Display for Prefix {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}/{}", self.network, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> NybbleAddr {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(p("2001:db8::/32").to_string(), "2001:db8::/32");
        assert_eq!(p("::/0").to_string(), "::/0");
        assert_eq!(
            p("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128").to_string(),
            "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128"
        );
    }

    #[test]
    fn parse_masks_host_bits() {
        assert_eq!(p("2001:db8:dead:beef::1/32"), p("2001:db8::/32"));
        assert_eq!(p("2001:db8::1/127"), p("2001:db8::/127"));
        assert_ne!(p("2001:db8::1/128"), p("2001:db8::/128"));
    }

    #[test]
    fn parse_errors() {
        assert!("2001:db8::".parse::<Prefix>().is_err());
        assert!("2001:db8::/129".parse::<Prefix>().is_err());
        assert!("2001:db8::/x".parse::<Prefix>().is_err());
        assert!("2001:db8::/-1".parse::<Prefix>().is_err());
        assert!("zzz/32".parse::<Prefix>().is_err());
    }

    #[test]
    fn contains_at_bit_granularity() {
        // /45 is not nybble aligned; containment must still be exact.
        let pre = p("2001:db8:8000::/33");
        assert!(pre.contains(a("2001:db8:8000::1")));
        assert!(pre.contains(a("2001:db8:ffff::1")));
        assert!(!pre.contains(a("2001:db8:7fff::1")));
        let deflt = p("::/0");
        assert!(deflt.contains(a("::")));
        assert!(deflt.contains(a("ffff::")));
    }

    #[test]
    fn covers_nesting() {
        assert!(p("2001:db8::/32").covers(&p("2001:db8:1::/48")));
        assert!(p("2001:db8::/32").covers(&p("2001:db8::/32")));
        assert!(!p("2001:db8:1::/48").covers(&p("2001:db8::/32")));
        assert!(!p("2001:db8::/32").covers(&p("2001:db9::/48")));
        assert!(Prefix::DEFAULT.covers(&p("2001:db8::/32")));
    }

    #[test]
    fn size() {
        assert_eq!(p("2001:db8::/128").size(), 1);
        assert_eq!(p("2001:db8::/96").size(), 1u128 << 32);
        assert_eq!(p("2001:db8::/64").size(), 1u128 << 64);
        assert_eq!(p("::/0").size(), u128::MAX);
    }

    /// One `u128` draw masked to the host bits, and none at /128: alias
    /// detection's and the §8 loop's verdicts depend on this stream.
    #[test]
    fn random_address_draws_one_masked_word() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        for text in ["::/0", "2a00:8000::/17", "2001:db8::/96", "2001:db8::7/127"] {
            let prefix = p(text);
            for _ in 0..20 {
                let mut twin = rng.clone();
                let addr = prefix.random_address(&mut rng);
                let host_mask = u128::MAX.checked_shr(u32::from(prefix.len())).unwrap_or(0);
                let expected = prefix.network().bits() | (twin.gen::<u128>() & host_mask);
                assert_eq!(addr.bits(), expected, "{text}");
                assert_eq!(rng.gen::<u64>(), twin.gen::<u64>(), "one draw");
            }
        }
        let host = p("2001:db8::5/128");
        let mut twin = rng.clone();
        assert_eq!(host.random_address(&mut rng), a("2001:db8::5"));
        assert_eq!(rng.gen::<u64>(), twin.gen::<u64>(), "no draw at /128");
    }

    #[test]
    fn to_range_alignment() {
        let range = p("2001:db8::/32").to_range().unwrap();
        assert_eq!(range.size(), 1u128 << 96);
        assert!(range.contains(a("2001:db8:1234::1")));
        assert!(!range.contains(a("2001:db9::")));
        assert!(p("2001:db8::/33").to_range().is_none());
        assert_eq!(p("::/0").to_range().unwrap(), Range::full());
    }

    #[test]
    fn of_helper() {
        assert_eq!(
            Prefix::of(a("2001:db8:1:2:3:4:5:6"), 96),
            p("2001:db8:1:2:3:4::/96")
        );
    }
}
