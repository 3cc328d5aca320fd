//! NDP instruction formats (Fig. 5e).
//!
//! NDP units are commanded through specially-encoded DDR commands: every
//! instruction is a DDR WRITE to a reserved address range. The operation,
//! target QSHR, and task count are encoded in the **address bits** (as in
//! the paper), and the operands travel in the 64 B data payload — which
//! lets a set-search instruction carry a full eight 8-byte comparison
//! tasks. This module provides the concrete, loss-free binary encoding of
//! set-search and of the polled result array, with round-trip tests: the
//! contract between the host driver and the buffer-chip command parser.

/// One distance-comparison task (4 B search-vector address + 4 B distance
/// threshold); a set-search instruction carries up to eight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchTask {
    /// Search-vector address (line-aligned, rank-local).
    pub addr: u32,
    /// Early-termination threshold for this comparison.
    pub threshold: f32,
}

/// A decoded NDP instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum NdpInstruction {
    /// Up to eight comparison tasks for one QSHR.
    SetSearch {
        /// Target QSHR.
        qshr: u8,
        /// The tasks (1..=8).
        tasks: Vec<SearchTask>,
    },
}

/// Reserved address prefix marking NDP instructions (upper address bits).
pub const NDP_ADDR_PREFIX: u64 = 0xA5 << 24;

const OP_SET_SEARCH: u64 = 0x3;

impl NdpInstruction {
    /// Encode into the DDR command's `(address, 64 B payload)` pair.
    ///
    /// Address layout: `NDP_ADDR_PREFIX | opcode << 16 | qshr << 8 | tasks`,
    /// shifted left by 6 so the encoded address stays line-aligned.
    pub fn encode(&self) -> (u64, [u8; 64]) {
        let NdpInstruction::SetSearch { qshr, tasks } = self;
        assert!(*qshr < 32, "qshr out of range");
        assert!(
            (1..=8).contains(&tasks.len()),
            "set-search carries 1..=8 tasks"
        );
        let mut p = [0u8; 64];
        for (i, t) in tasks.iter().enumerate() {
            let off = i * 8;
            p[off..off + 4].copy_from_slice(&t.addr.to_le_bytes());
            p[off + 4..off + 8].copy_from_slice(&t.threshold.to_le_bytes());
        }
        let addr_bits = OP_SET_SEARCH << 16 | (*qshr as u64) << 8 | tasks.len() as u64;
        ((NDP_ADDR_PREFIX | addr_bits) << 6, p)
    }

    /// Decode a DDR command's `(address, payload)` pair.
    ///
    /// Returns `None` if the address lacks the NDP prefix or any field is
    /// malformed (unknown opcode, out-of-range QSHR id, bad task count).
    pub fn decode(addr: u64, p: &[u8; 64]) -> Option<NdpInstruction> {
        let bits = addr >> 6;
        if bits >> 24 != NDP_ADDR_PREFIX >> 24 {
            return None;
        }
        let opcode = (bits >> 16) & 0xff;
        let qshr = ((bits >> 8) & 0xff) as u8;
        let n = (bits & 0xff) as usize;
        if opcode != OP_SET_SEARCH || qshr >= 32 || !(1..=8).contains(&n) {
            return None;
        }
        let tasks = (0..n)
            .map(|i| {
                let off = i * 8;
                SearchTask {
                    addr: u32::from_le_bytes([p[off], p[off + 1], p[off + 2], p[off + 3]]),
                    threshold: f32::from_le_bytes([p[off + 4], p[off + 5], p[off + 6], p[off + 7]]),
                }
            })
            .collect();
        Some(NdpInstruction::SetSearch { qshr, tasks })
    }
}

/// CRC-8 (polynomial 0x07, init 0x00, MSB-first) over `data`.
///
/// The same polynomial DDR5 uses for write CRC; cheap enough for the
/// buffer chip to compute per result slot.
pub fn crc8(data: &[u8]) -> u8 {
    let mut crc = 0u8;
    for &b in data {
        crc ^= b;
        for _ in 0..8 {
            crc = if crc & 0x80 != 0 {
                (crc << 1) ^ 0x07
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// The DDR-encoded 64 B payload a poll READ returns (the QSHR result
/// array), with per-slot integrity protection.
///
/// Layout: byte 0 holds the slot count `n` (0..=8) and byte 1 its CRC-8;
/// each slot `i` then occupies 5 bytes at offset `2 + 5i` — the f32
/// result little-endian followed by a CRC-8 over `[i, b0, b1, b2, b3]`
/// (the slot index participates so a swapped or aliased slot is caught,
/// not just flipped bits). Unused bytes are zero.
///
/// The fault injector flips bits in this payload on the simulated return
/// path; [`ResultPayload::decode`] is how the host driver notices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultPayload;

impl ResultPayload {
    /// Bytes occupied by one protected slot.
    pub const SLOT_BYTES: usize = 5;
    /// Offset of slot 0 within the payload.
    pub const SLOTS_OFF: usize = 2;

    /// Encode up to eight result distances into the protected payload.
    ///
    /// # Panics
    ///
    /// Panics on more than eight results (a QSHR holds eight task slots).
    pub fn encode(results: &[f32]) -> [u8; 64] {
        assert!(
            results.len() <= crate::qshr::TASKS_PER_QSHR,
            "at most 8 result slots"
        );
        let mut p = [0u8; 64];
        p[0] = results.len() as u8;
        p[1] = crc8(&p[..1]);
        for (i, r) in results.iter().enumerate() {
            let off = Self::SLOTS_OFF + i * Self::SLOT_BYTES;
            let b = r.to_le_bytes();
            p[off..off + 4].copy_from_slice(&b);
            p[off + 4] = crc8(&[i as u8, b[0], b[1], b[2], b[3]]);
        }
        p
    }

    /// Decode and verify a polled payload from `qshr`.
    ///
    /// # Errors
    ///
    /// [`NdpError::CorruptHeader`](crate::NdpError::CorruptHeader) when
    /// the slot count fails its CRC (nothing can be trusted), and
    /// [`NdpError::CorruptResult`](crate::NdpError::CorruptResult) naming
    /// the first slot whose CRC fails.
    pub fn decode(qshr: u8, p: &[u8; 64]) -> Result<Vec<f32>, crate::NdpError> {
        if crc8(&p[..1]) != p[1] || p[0] as usize > crate::qshr::TASKS_PER_QSHR {
            return Err(crate::NdpError::CorruptHeader { qshr });
        }
        let n = p[0] as usize;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let off = Self::SLOTS_OFF + i * Self::SLOT_BYTES;
            let b = [p[off], p[off + 1], p[off + 2], p[off + 3]];
            if crc8(&[i as u8, b[0], b[1], b[2], b[3]]) != p[off + 4] {
                return Err(crate::NdpError::CorruptResult { qshr, slot: i });
            }
            out.push(f32::from_le_bytes(b));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qshr::{QSHRS_PER_UNIT, RESULT_INVALID, TASKS_PER_QSHR};
    use crate::NdpError;

    fn roundtrip(i: NdpInstruction) {
        let (addr, payload) = i.encode();
        assert_eq!(NdpInstruction::decode(addr, &payload), Some(i));
    }

    #[test]
    fn set_search_roundtrip_full() {
        let tasks: Vec<SearchTask> = (0..8)
            .map(|i| SearchTask {
                addr: 0x1000 + i * 64,
                threshold: 1.5 * i as f32,
            })
            .collect();
        roundtrip(NdpInstruction::SetSearch { qshr: 31, tasks });
    }

    #[test]
    fn addresses_are_line_aligned_and_prefixed() {
        let tasks = vec![SearchTask {
            addr: 0x40,
            threshold: 2.0,
        }];
        let (addr, _) = NdpInstruction::SetSearch { qshr: 3, tasks }.encode();
        assert_eq!(addr % 64, 0);
        assert_eq!((addr >> 6) >> 24, NDP_ADDR_PREFIX >> 24);
    }

    #[test]
    fn non_ndp_address_rejected() {
        let p = [0u8; 64];
        assert_eq!(NdpInstruction::decode(0x1000, &p), None);
    }

    #[test]
    fn rejects_malformed_fields() {
        // Unknown opcode under the NDP prefix.
        let addr = (NDP_ADDR_PREFIX | (0x9 << 16)) << 6;
        assert_eq!(NdpInstruction::decode(addr, &[0u8; 64]), None);
        // Set-search with 0 tasks.
        let addr = (NDP_ADDR_PREFIX | (OP_SET_SEARCH << 16)) << 6;
        assert_eq!(NdpInstruction::decode(addr, &[0u8; 64]), None);
        // Set-search to an out-of-range QSHR.
        let addr = (NDP_ADDR_PREFIX | (OP_SET_SEARCH << 16) | (32 << 8) | 1) << 6;
        assert_eq!(NdpInstruction::decode(addr, &[0u8; 64]), None);
    }

    #[test]
    #[should_panic(expected = "1..=8 tasks")]
    fn encode_rejects_too_many_tasks() {
        let tasks = vec![
            SearchTask {
                addr: 0,
                threshold: 0.0
            };
            9
        ];
        NdpInstruction::SetSearch { qshr: 0, tasks }.encode();
    }

    #[test]
    fn result_payload_roundtrip() {
        let results = [1.5f32, -2.25, f32::MAX, 0.0, 42.0];
        let p = ResultPayload::encode(&results);
        assert_eq!(ResultPayload::decode(3, &p), Ok(results.to_vec()));
        // Empty result array is legal (no tasks finished yet).
        let p = ResultPayload::encode(&[]);
        assert_eq!(ResultPayload::decode(0, &p), Ok(vec![]));
    }

    #[test]
    fn result_payload_detects_flipped_bits() {
        let results = [1.0f32, 2.0, 3.0];
        let mut p = ResultPayload::encode(&results);
        // Flip one bit in slot 1's value bytes.
        p[ResultPayload::SLOTS_OFF + ResultPayload::SLOT_BYTES] ^= 0x10;
        assert_eq!(
            ResultPayload::decode(7, &p),
            Err(crate::NdpError::CorruptResult { qshr: 7, slot: 1 })
        );
    }

    #[test]
    fn result_payload_detects_corrupt_count() {
        let mut p = ResultPayload::encode(&[1.0f32]);
        p[0] ^= 0x04;
        assert_eq!(
            ResultPayload::decode(2, &p),
            Err(crate::NdpError::CorruptHeader { qshr: 2 })
        );
        // A count CRC that "matches" an out-of-range count is also caught.
        let mut p = ResultPayload::encode(&[1.0f32]);
        p[0] = 9;
        p[1] = crc8(&[9]);
        assert!(ResultPayload::decode(2, &p).is_err());
    }

    #[test]
    fn result_payload_detects_slot_swap() {
        // Slot CRCs bind the slot index, so swapping two intact slots is
        // detected even though each slot's bits are self-consistent.
        let results = [10.0f32, 20.0];
        let mut p = ResultPayload::encode(&results);
        let (a, b) = (
            ResultPayload::SLOTS_OFF,
            ResultPayload::SLOTS_OFF + ResultPayload::SLOT_BYTES,
        );
        for i in 0..ResultPayload::SLOT_BYTES {
            p.swap(a + i, b + i);
        }
        assert!(matches!(
            ResultPayload::decode(0, &p),
            Err(crate::NdpError::CorruptResult { slot: 0, .. })
        ));
    }

    /// A set-search to `qshr` carrying `(addr, threshold)` tasks.
    fn set_search(qshr: u8, tasks: &[(u32, f32)]) -> NdpInstruction {
        let tasks = tasks
            .iter()
            .map(|&(addr, threshold)| SearchTask { addr, threshold })
            .collect();
        NdpInstruction::SetSearch { qshr, tasks }
    }

    /// Offset of result slot `i` within a poll payload.
    fn slot_off(i: usize) -> usize {
        ResultPayload::SLOTS_OFF + i * ResultPayload::SLOT_BYTES
    }

    #[test]
    fn set_search_roundtrips_every_task_count() {
        let tasks: Vec<(u32, f32)> = (0..8).map(|i| (i * 64, i as f32 + 0.5)).collect();
        for n in 1..=TASKS_PER_QSHR {
            roundtrip(set_search(5, &tasks[..n]));
        }
    }

    #[test]
    fn set_search_roundtrips_every_qshr() {
        // The QSHR id lives in the address bits, so every register of a
        // unit gets its own address.
        let mut addrs = std::collections::BTreeSet::new();
        for qshr in 0..QSHRS_PER_UNIT as u8 {
            addrs.insert(set_search(qshr, &[(0x80, 3.0)]).encode().0);
            roundtrip(set_search(qshr, &[(0x80, 3.0)]));
        }
        assert_eq!(addrs.len(), QSHRS_PER_UNIT);
    }

    #[test]
    fn thresholds_travel_bit_exact() {
        // The payload carries raw f32 bits, so values that `==` cannot
        // tell apart (NaN payloads, signed zero) arrive unchanged.
        let (nan, tiny) = (f32::from_bits(0x7fc0_1234), f32::from_bits(1));
        let sent = [nan, -0.0, 0.0, tiny, f32::INFINITY, f32::MAX, f32::MIN];
        let tasks: Vec<(u32, f32)> = sent.iter().map(|&t| (0x40, t)).collect();
        let (addr, p) = set_search(1, &tasks).encode();
        let NdpInstruction::SetSearch { tasks: back, .. } =
            NdpInstruction::decode(addr, &p).unwrap();
        let back: Vec<u32> = back.iter().map(|t| t.threshold.to_bits()).collect();
        assert_eq!(back, sent.map(f32::to_bits));
    }

    #[test]
    fn decode_ignores_bytes_past_the_task_count() {
        let i = set_search(3, &[(0x40, 2.0), (0x80, 4.0)]);
        let (addr, mut p) = i.encode();
        assert_eq!(p[16..], [0; 48], "unused task slots are zero");
        p[16..].fill(0xff);
        assert_eq!(NdpInstruction::decode(addr, &p), Some(i));
    }

    #[test]
    fn decode_rejects_more_than_eight_tasks() {
        for n in 9..=0xff {
            let addr = (NDP_ADDR_PREFIX | (OP_SET_SEARCH << 16) | n) << 6;
            assert_eq!(NdpInstruction::decode(addr, &[0u8; 64]), None, "{n} tasks");
        }
    }

    #[test]
    fn decode_rejects_addresses_outside_the_reserved_range() {
        let (addr, p) = set_search(0, &[(0, 1.0)]).encode();
        assert!(NdpInstruction::decode(addr, &p).is_some());
        // A neighbouring prefix, a bit set above the prefix, or no prefix
        // at all is an ordinary DRAM write.
        for other in [addr ^ (1 << 30), addr | (1 << 38), addr & !(0xff << 30)] {
            assert_eq!(NdpInstruction::decode(other, &p), None, "{other:#x}");
        }
    }

    #[test]
    #[should_panic(expected = "1..=8 tasks")]
    fn encode_rejects_empty_task_list() {
        set_search(0, &[]).encode();
    }

    #[test]
    #[should_panic(expected = "qshr out of range")]
    fn encode_rejects_out_of_range_qshr() {
        set_search(32, &[(0, 0.0)]).encode();
    }

    #[test]
    fn result_payload_full_array_roundtrips_and_leaves_the_tail_zero() {
        let results: Vec<f32> = (0..TASKS_PER_QSHR).map(|i| i as f32 * 0.75).collect();
        let p = ResultPayload::encode(&results);
        assert!(p[slot_off(TASKS_PER_QSHR)..].iter().all(|&b| b == 0));
        assert_eq!(ResultPayload::decode(6, &p), Ok(results));
    }

    #[test]
    #[should_panic(expected = "at most 8 result slots")]
    fn result_payload_rejects_nine_results() {
        ResultPayload::encode(&[0.0; 9]);
    }

    #[test]
    fn result_payload_special_values_travel_bit_exact() {
        let nan = f32::from_bits(0x7fc0_1234);
        let sent = [nan, -0.0, f32::INFINITY, RESULT_INVALID, f32::from_bits(1)];
        let back = ResultPayload::decode(0, &ResultPayload::encode(&sent)).unwrap();
        let back: Vec<u32> = back.iter().map(|x| x.to_bits()).collect();
        assert_eq!(back, sent.map(f32::to_bits));
    }

    #[test]
    fn result_payload_catches_every_single_bit_flip() {
        // Every bit of the header and of each used slot is under a CRC,
        // so one flip there names the damaged part; a flip in the unused
        // tail changes nothing the host reads.
        let results = [1.0f32, -2.5, 3.25, f32::MAX, 0.0];
        let clean = ResultPayload::encode(&results);
        for bit in 0..clean.len() * 8 {
            let mut p = clean;
            p[bit / 8] ^= 1 << (bit % 8);
            let expected = match bit / 8 {
                byte if byte < slot_off(0) => Err(NdpError::CorruptHeader { qshr: 4 }),
                byte if byte < slot_off(results.len()) => {
                    let slot = (byte - slot_off(0)) / ResultPayload::SLOT_BYTES;
                    Err(NdpError::CorruptResult { qshr: 4, slot })
                }
                _ => Ok(results.to_vec()),
            };
            assert_eq!(ResultPayload::decode(4, &p), expected, "bit {bit}");
        }
    }

    #[test]
    fn result_payload_catches_every_double_bit_flip_within_a_slot() {
        let clean = ResultPayload::encode(&[7.5, -0.125, 1e-30]);
        let slot_bits = ResultPayload::SLOT_BYTES * 8;
        for slot in 0..3 {
            for a in 0..slot_bits {
                for b in a + 1..slot_bits {
                    let mut p = clean;
                    p[slot_off(slot) + a / 8] ^= 1 << (a % 8);
                    p[slot_off(slot) + b / 8] ^= 1 << (b % 8);
                    let caught = Err(NdpError::CorruptResult { qshr: 1, slot });
                    assert_eq!(ResultPayload::decode(1, &p), caught, "bits {a}, {b}");
                }
            }
        }
    }

    #[test]
    fn crc8_matches_the_standard_check_value() {
        // Polynomial 0x07, zero init, no reflection and no final XOR is
        // the catalogued CRC-8/SMBUS, whose check value is 0xF4.
        assert_eq!(crc8(b"123456789"), 0xF4);
    }

    #[test]
    fn crc8_known_properties() {
        assert_eq!(crc8(&[]), 0);
        // Any single-bit flip changes the CRC.
        let base = crc8(&[0xA5, 0x5A]);
        for byte in 0..2 {
            for bit in 0..8 {
                let mut d = [0xA5u8, 0x5A];
                d[byte] ^= 1 << bit;
                assert_ne!(crc8(&d), base, "flip {byte}.{bit} undetected");
            }
        }
    }
}
