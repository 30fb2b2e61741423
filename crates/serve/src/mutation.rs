//! The seeded byte-level mutation schedule the decoder trust-boundary
//! tests share: the artifact mutation test reseals its mutants, the
//! health-report test decodes them as they are.

/// The next value of a SplitMix64 stream: the mutation schedule's
/// deterministic randomness.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What 8-byte overwrites plant: all ones (NaN as an `f64`), counts
/// far past any payload, widths around the decoders' limits, and
/// out-of-range values for the probability and time fields.
const PLANTED: [u64; 10] = [
    u64::MAX,
    1 << 40,
    1 << 20,
    64,
    63,
    31,
    29,
    0,
    1.5f64.to_bits(),
    (-1.0f64).to_bits(),
];

/// One mutant of `payload` (at least 8 bytes long), drawn from `rng`: a
/// bit flip, a truncation or an 8-byte overwrite with a [`PLANTED`]
/// value.
pub(crate) fn mutate(payload: &[u8], rng: &mut u64) -> Vec<u8> {
    let mut p = payload.to_vec();
    let mut draw = |bound: usize| (splitmix(rng) % bound as u64) as usize;
    match draw(3) {
        0 => {
            let bit = draw(p.len() * 8);
            p[bit / 8] ^= 1 << (bit % 8);
        }
        1 => p.truncate(draw(p.len())),
        _ => {
            let value = PLANTED[draw(PLANTED.len())];
            // Half the overwrites land among the leading 256 bytes, where
            // an artifact keeps its config, normaliser and group headers
            // ahead of the bulky encoder entries.
            let span = if draw(2) == 0 {
                p.len().min(256)
            } else {
                p.len()
            };
            let at = draw(span - 7);
            p[at..at + 8].copy_from_slice(&value.to_le_bytes());
        }
    }
    p
}
