//! Sandboxed packet programs (paper §3.3 "Data plane enforcement", §4.7).
//!
//! The paper attaches eBPF programs to the data path so each experiment can
//! express its own packet policy — allow, transform, or block — without the
//! platform trusting the program. This module is that sandbox in miniature:
//! a fixed-width register machine over decoded packet header fields, with
//! every run bounded by a *fuel* budget so a hostile or buggy program can
//! burn a constant number of instructions and nothing else. There is no
//! memory, no calls, no access to anything but the packet view — the whole
//! attack surface is the instruction set below.
//!
//! Fail-closed rules (§4.7): a program that is malformed at install time, or
//! that exhausts its fuel, or that runs off the end of its instruction list,
//! yields `Block`. An experiment's program can misdirect or drop *its own*
//! traffic, never smuggle a packet past enforcement.

use std::net::{IpAddr, Ipv4Addr};

use peering_netsim::Ipv4Header;

/// Number of general-purpose registers (`r0`..`r7`).
pub const NUM_REGS: usize = 8;

/// Upper bound on instructions per program (install-time check).
pub const MAX_PROGRAM_LEN: usize = 256;

/// Hard ceiling on any program's fuel budget. Bounded loops are allowed —
/// backward jumps are legal — but no program can execute more than this
/// many instructions per packet.
pub const MAX_FUEL: u32 = 4096;

/// Default fuel budget for [`PacketProgram::new`].
pub const DEFAULT_FUEL: u32 = 256;

/// A packet header field the VM can read. Addresses are folded to 64 bits
/// (IPv4 zero-extended; IPv6 XOR-folded) — the VM compares addresses only
/// through this folding, which is also what makes per-flow verdict caching
/// sound: two packets the fold cannot distinguish are indistinguishable to
/// every program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// Source address (folded to `u64`).
    SrcAddr,
    /// Destination address (folded to `u64`).
    DstAddr,
    /// IP protocol number.
    Proto,
    /// Transport source port (0 when not TCP/UDP or truncated).
    SrcPort,
    /// Transport destination port (0 when not TCP/UDP or truncated).
    DstPort,
    /// Wire length in bytes.
    Len,
    /// TTL as received (before the router decrements it).
    Ttl,
}

/// One instruction. `u8` operands are register indexes, `u16` operands are
/// absolute jump targets, `u64` operands are immediates. All arithmetic is
/// wrapping; shift amounts are masked to 63.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insn {
    /// `r[d] = field`.
    Ld(u8, Field),
    /// `r[d] = imm`.
    LdImm(u8, u64),
    /// `r[d] = r[s]`.
    Mov(u8, u8),
    /// `r[d] = r[d].wrapping_add(r[s])`.
    Add(u8, u8),
    /// `r[d] = r[d].wrapping_sub(r[s])`.
    Sub(u8, u8),
    /// `r[d] &= r[s]`.
    And(u8, u8),
    /// `r[d] |= r[s]`.
    Or(u8, u8),
    /// `r[d] ^= r[s]`.
    Xor(u8, u8),
    /// `r[d] <<= amount & 63`.
    ShlImm(u8, u8),
    /// `r[d] >>= amount & 63`.
    ShrImm(u8, u8),
    /// Unconditional jump to an absolute instruction index.
    Jmp(u16),
    /// Jump if `r[a] == imm`.
    JeqImm(u8, u64, u16),
    /// Jump if `r[a] != imm`.
    JneImm(u8, u64, u16),
    /// Jump if `r[a] < imm`.
    JltImm(u8, u64, u16),
    /// Jump if `r[a] > imm`.
    JgtImm(u8, u64, u16),
    /// Jump if `r[a] == r[b]`.
    Jeq(u8, u8, u16),
    /// Jump if `r[a] < r[b]`.
    Jlt(u8, u8, u16),
    /// Record a TTL rewrite from `r[s]` (low 8 bits) and continue.
    SetTtl(u8),
    /// Record a source-address rewrite from `r[s]` (low 32 bits, IPv4) and
    /// continue.
    SetSrc(u8),
    /// Record a destination-address rewrite from `r[s]` (low 32 bits,
    /// IPv4) and continue. The router re-routes on the rewritten
    /// destination.
    SetDst(u8),
    /// Terminate: pass the packet (as `Transform` if any rewrite was
    /// recorded, plain `Allow` otherwise).
    Allow,
    /// Terminate: drop the packet.
    Block,
}

/// Why a program failed install-time validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgError {
    /// No instructions.
    Empty,
    /// More than [`MAX_PROGRAM_LEN`] instructions.
    TooLong,
    /// A register operand is out of range; the payload is the offending
    /// instruction index.
    BadRegister(usize),
    /// A jump target is past the end; the payload is the offending
    /// instruction index.
    BadTarget(usize),
    /// Fuel budget is zero or above [`MAX_FUEL`].
    BadFuel,
}

impl std::fmt::Display for ProgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgError::Empty => write!(f, "program is empty"),
            ProgError::TooLong => write!(f, "program exceeds {MAX_PROGRAM_LEN} instructions"),
            ProgError::BadRegister(pc) => write!(f, "bad register operand at instruction {pc}"),
            ProgError::BadTarget(pc) => write!(f, "jump target out of range at instruction {pc}"),
            ProgError::BadFuel => write!(f, "fuel budget must be in 1..={MAX_FUEL}"),
        }
    }
}

/// Header rewrite accumulated by `Set*` instructions (the paper's
/// "transform" verdict).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Rewrite {
    /// Replace the TTL.
    pub ttl: Option<u8>,
    /// Replace the IPv4 source address.
    pub src: Option<Ipv4Addr>,
    /// Replace the IPv4 destination address (re-routed by the caller).
    pub dst: Option<Ipv4Addr>,
}

impl Rewrite {
    /// No rewrites recorded.
    pub fn is_empty(&self) -> bool {
        self.ttl.is_none() && self.src.is_none() && self.dst.is_none()
    }

    /// Patch the recorded fields into `header`, leaving the rest alone.
    pub fn apply(&self, header: &mut Ipv4Header) {
        if let Some(ttl) = self.ttl {
            header.ttl = ttl;
        }
        if let Some(src) = self.src {
            header.src = src;
        }
        if let Some(dst) = self.dst {
            header.dst = dst;
        }
    }
}

/// How one execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgOutcome {
    /// Pass the packet unchanged.
    Allow,
    /// Pass the packet with the header rewrite applied.
    Transform(Rewrite),
    /// Drop the packet (explicit `Block`, or the program ran off the end —
    /// fail closed).
    Block,
    /// The fuel budget ran out mid-execution (fail closed: the caller must
    /// block).
    FuelExhausted,
}

/// The decoded header fields one packet exposes to programs (and to the
/// enforcement pipeline — this is also `check_egress`'s input).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketView {
    /// Source address.
    pub src: IpAddr,
    /// Destination address.
    pub dst: IpAddr,
    /// IP protocol number.
    pub proto: u8,
    /// Transport source port (0 when not parsed).
    pub src_port: u16,
    /// Transport destination port (0 when not parsed).
    pub dst_port: u16,
    /// Wire length in bytes (what shapers charge).
    pub len: u32,
    /// TTL as received.
    pub ttl: u8,
}

/// Fold an address to the 64 bits programs (and the verdict cache) see.
fn fold_addr(addr: IpAddr) -> u64 {
    match addr {
        IpAddr::V4(v4) => u32::from(v4) as u64,
        IpAddr::V6(v6) => {
            let b = u128::from_be_bytes(v6.octets());
            (b >> 64) as u64 ^ b as u64
        }
    }
}

impl PacketView {
    /// A view with only the fields the pre-VM pipeline used (source and
    /// length); destination/ports zero, TTL 64. Tests and benches that
    /// only exercise anti-spoofing and shaping use this.
    pub fn basic(src: IpAddr, len: usize) -> Self {
        PacketView {
            src,
            dst: IpAddr::V4(Ipv4Addr::UNSPECIFIED),
            proto: 0,
            src_port: 0,
            dst_port: 0,
            len: len as u32,
            ttl: 64,
        }
    }

    /// The value a program reads for `field`.
    pub fn field(&self, field: Field) -> u64 {
        match field {
            Field::SrcAddr => fold_addr(self.src),
            Field::DstAddr => fold_addr(self.dst),
            Field::Proto => self.proto as u64,
            Field::SrcPort => self.src_port as u64,
            Field::DstPort => self.dst_port as u64,
            Field::Len => self.len as u64,
            Field::Ttl => self.ttl as u64,
        }
    }

    /// The flow key the verdict cache hashes: everything a flow-invariant
    /// program can observe. Packets of one flow differ only in `len`/`ttl`.
    pub fn flow_key(&self) -> (u64, u64, u64) {
        (
            fold_addr(self.src),
            fold_addr(self.dst),
            ((self.proto as u64) << 32) | ((self.src_port as u64) << 16) | self.dst_port as u64,
        )
    }
}

/// A validated-or-not packet program: instructions plus a fuel budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketProgram {
    insns: Vec<Insn>,
    fuel: u32,
}

impl PacketProgram {
    /// A program with the default fuel budget.
    pub fn new(insns: Vec<Insn>) -> Self {
        PacketProgram {
            insns,
            fuel: DEFAULT_FUEL,
        }
    }

    /// Override the fuel budget (still capped by validation at
    /// [`MAX_FUEL`]).
    pub fn with_fuel(mut self, fuel: u32) -> Self {
        self.fuel = fuel;
        self
    }

    /// The fuel budget.
    pub fn fuel(&self) -> u32 {
        self.fuel
    }

    /// The instruction list.
    pub fn insns(&self) -> &[Insn] {
        &self.insns
    }

    /// The trivial pass-everything program.
    pub fn allow_all() -> Self {
        PacketProgram::new(vec![Insn::Allow])
    }

    /// The trivial drop-everything program.
    pub fn block_all() -> Self {
        PacketProgram::new(vec![Insn::Block])
    }

    /// Install-time validation: operand ranges, jump targets, program and
    /// fuel bounds. A program that fails this must be treated as
    /// fail-closed by the caller (every packet blocked), never skipped.
    pub fn validate(&self) -> Result<(), ProgError> {
        if self.insns.is_empty() {
            return Err(ProgError::Empty);
        }
        if self.insns.len() > MAX_PROGRAM_LEN {
            return Err(ProgError::TooLong);
        }
        if self.fuel == 0 || self.fuel > MAX_FUEL {
            return Err(ProgError::BadFuel);
        }
        let len = self.insns.len() as u16;
        let reg = |r: u8, pc: usize| -> Result<(), ProgError> {
            if (r as usize) < NUM_REGS {
                Ok(())
            } else {
                Err(ProgError::BadRegister(pc))
            }
        };
        let tgt = |t: u16, pc: usize| -> Result<(), ProgError> {
            if t < len {
                Ok(())
            } else {
                Err(ProgError::BadTarget(pc))
            }
        };
        for (pc, insn) in self.insns.iter().enumerate() {
            match *insn {
                Insn::Ld(d, _) | Insn::LdImm(d, _) => reg(d, pc)?,
                Insn::Mov(d, s)
                | Insn::Add(d, s)
                | Insn::Sub(d, s)
                | Insn::And(d, s)
                | Insn::Or(d, s)
                | Insn::Xor(d, s) => {
                    reg(d, pc)?;
                    reg(s, pc)?;
                }
                Insn::ShlImm(d, _) | Insn::ShrImm(d, _) => reg(d, pc)?,
                Insn::Jmp(t) => tgt(t, pc)?,
                Insn::JeqImm(a, _, t)
                | Insn::JneImm(a, _, t)
                | Insn::JltImm(a, _, t)
                | Insn::JgtImm(a, _, t) => {
                    reg(a, pc)?;
                    tgt(t, pc)?;
                }
                Insn::Jeq(a, b, t) | Insn::Jlt(a, b, t) => {
                    reg(a, pc)?;
                    reg(b, pc)?;
                    tgt(t, pc)?;
                }
                Insn::SetTtl(s) | Insn::SetSrc(s) | Insn::SetDst(s) => reg(s, pc)?,
                Insn::Allow | Insn::Block => {}
            }
        }
        Ok(())
    }

    /// Whether every packet of one flow gets the same verdict: true iff the
    /// program never reads `Len` or `Ttl`, the only fields that vary within
    /// a flow. Only flow-invariant programs may have their verdicts cached
    /// per flow.
    pub fn flow_invariant(&self) -> bool {
        !self
            .insns
            .iter()
            .any(|i| matches!(i, Insn::Ld(_, Field::Len | Field::Ttl)))
    }

    /// Execute against one packet. Returns the outcome and the fuel
    /// consumed (`<= self.fuel`, always — the property tests pin this).
    /// Never panics on a validated program; on an unvalidated one the worst
    /// case is a `Block` via the fail-closed paths below.
    pub fn run(&self, pkt: &PacketView) -> (ProgOutcome, u32) {
        let mut regs = [0u64; NUM_REGS];
        let mut rewrite = Rewrite::default();
        let mut pc: usize = 0;
        let mut used: u32 = 0;
        while used < self.fuel {
            let Some(insn) = self.insns.get(pc) else {
                // Ran off the end: fail closed.
                return (ProgOutcome::Block, used);
            };
            used += 1;
            pc += 1;
            match *insn {
                Insn::Ld(d, f) => regs[d as usize & (NUM_REGS - 1)] = pkt.field(f),
                Insn::LdImm(d, imm) => regs[d as usize & (NUM_REGS - 1)] = imm,
                Insn::Mov(d, s) => {
                    regs[d as usize & (NUM_REGS - 1)] = regs[s as usize & (NUM_REGS - 1)]
                }
                Insn::Add(d, s) => {
                    let v = regs[s as usize & (NUM_REGS - 1)];
                    let d = &mut regs[d as usize & (NUM_REGS - 1)];
                    *d = d.wrapping_add(v);
                }
                Insn::Sub(d, s) => {
                    let v = regs[s as usize & (NUM_REGS - 1)];
                    let d = &mut regs[d as usize & (NUM_REGS - 1)];
                    *d = d.wrapping_sub(v);
                }
                Insn::And(d, s) => {
                    let v = regs[s as usize & (NUM_REGS - 1)];
                    regs[d as usize & (NUM_REGS - 1)] &= v;
                }
                Insn::Or(d, s) => {
                    let v = regs[s as usize & (NUM_REGS - 1)];
                    regs[d as usize & (NUM_REGS - 1)] |= v;
                }
                Insn::Xor(d, s) => {
                    let v = regs[s as usize & (NUM_REGS - 1)];
                    regs[d as usize & (NUM_REGS - 1)] ^= v;
                }
                Insn::ShlImm(d, amt) => regs[d as usize & (NUM_REGS - 1)] <<= (amt & 63) as u32,
                Insn::ShrImm(d, amt) => regs[d as usize & (NUM_REGS - 1)] >>= (amt & 63) as u32,
                Insn::Jmp(t) => pc = t as usize,
                Insn::JeqImm(a, imm, t) => {
                    if regs[a as usize & (NUM_REGS - 1)] == imm {
                        pc = t as usize;
                    }
                }
                Insn::JneImm(a, imm, t) => {
                    if regs[a as usize & (NUM_REGS - 1)] != imm {
                        pc = t as usize;
                    }
                }
                Insn::JltImm(a, imm, t) => {
                    if regs[a as usize & (NUM_REGS - 1)] < imm {
                        pc = t as usize;
                    }
                }
                Insn::JgtImm(a, imm, t) => {
                    if regs[a as usize & (NUM_REGS - 1)] > imm {
                        pc = t as usize;
                    }
                }
                Insn::Jeq(a, b, t) => {
                    if regs[a as usize & (NUM_REGS - 1)] == regs[b as usize & (NUM_REGS - 1)] {
                        pc = t as usize;
                    }
                }
                Insn::Jlt(a, b, t) => {
                    if regs[a as usize & (NUM_REGS - 1)] < regs[b as usize & (NUM_REGS - 1)] {
                        pc = t as usize;
                    }
                }
                Insn::SetTtl(s) => {
                    rewrite.ttl = Some(regs[s as usize & (NUM_REGS - 1)] as u8);
                }
                Insn::SetSrc(s) => {
                    rewrite.src = Some(Ipv4Addr::from(regs[s as usize & (NUM_REGS - 1)] as u32));
                }
                Insn::SetDst(s) => {
                    rewrite.dst = Some(Ipv4Addr::from(regs[s as usize & (NUM_REGS - 1)] as u32));
                }
                Insn::Allow => {
                    let outcome = if rewrite.is_empty() {
                        ProgOutcome::Allow
                    } else {
                        ProgOutcome::Transform(rewrite)
                    };
                    return (outcome, used);
                }
                Insn::Block => return (ProgOutcome::Block, used),
            }
        }
        (ProgOutcome::FuelExhausted, used)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt() -> PacketView {
        PacketView {
            src: "184.164.224.9".parse().unwrap(),
            dst: "8.8.8.8".parse().unwrap(),
            proto: 17,
            src_port: 5353,
            dst_port: 53,
            len: 120,
            ttl: 64,
        }
    }

    #[test]
    fn trivial_programs() {
        assert_eq!(PacketProgram::allow_all().run(&pkt()).0, ProgOutcome::Allow);
        assert_eq!(PacketProgram::block_all().run(&pkt()).0, ProgOutcome::Block);
        assert!(PacketProgram::allow_all().validate().is_ok());
    }

    #[test]
    fn branch_on_field() {
        // Block UDP to port 53, allow everything else.
        let p = PacketProgram::new(vec![
            Insn::Ld(0, Field::Proto),
            Insn::JneImm(0, 17, 5),
            Insn::Ld(1, Field::DstPort),
            Insn::JneImm(1, 53, 5),
            Insn::Block,
            Insn::Allow,
        ]);
        assert!(p.validate().is_ok());
        assert_eq!(p.run(&pkt()).0, ProgOutcome::Block);
        let mut tcp = pkt();
        tcp.proto = 6;
        assert_eq!(p.run(&tcp).0, ProgOutcome::Allow);
        let mut other_port = pkt();
        other_port.dst_port = 443;
        assert_eq!(p.run(&other_port).0, ProgOutcome::Allow);
    }

    #[test]
    fn transform_records_rewrite() {
        let p = PacketProgram::new(vec![
            Insn::LdImm(0, 9),
            Insn::SetTtl(0),
            Insn::LdImm(1, u32::from(Ipv4Addr::new(10, 0, 0, 1)) as u64),
            Insn::SetDst(1),
            Insn::Allow,
        ]);
        let (out, _) = p.run(&pkt());
        let ProgOutcome::Transform(rw) = out else {
            panic!("expected transform, got {out:?}");
        };
        assert_eq!(rw.ttl, Some(9));
        assert_eq!(rw.dst, Some(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(rw.src, None);
    }

    #[test]
    fn bounded_loop_terminates_within_fuel() {
        // r0 counts down from 10; the loop body is 2 instructions.
        let p = PacketProgram::new(vec![
            Insn::LdImm(0, 10),
            Insn::LdImm(1, 1),
            Insn::Sub(0, 1),
            Insn::JneImm(0, 0, 2),
            Insn::Allow,
        ]);
        let (out, used) = p.run(&pkt());
        assert_eq!(out, ProgOutcome::Allow);
        assert!(used <= p.fuel());
        assert_eq!(used, 2 + 2 * 10 + 1);
    }

    #[test]
    fn infinite_loop_exhausts_fuel() {
        let p = PacketProgram::new(vec![Insn::Jmp(0)]).with_fuel(64);
        let (out, used) = p.run(&pkt());
        assert_eq!(out, ProgOutcome::FuelExhausted);
        assert_eq!(used, 64);
    }

    #[test]
    fn running_off_the_end_blocks() {
        let p = PacketProgram::new(vec![Insn::LdImm(0, 1)]);
        assert_eq!(p.run(&pkt()).0, ProgOutcome::Block);
    }

    #[test]
    fn validation_rejects_malformed() {
        assert_eq!(PacketProgram::new(vec![]).validate(), Err(ProgError::Empty));
        assert_eq!(
            PacketProgram::new(vec![Insn::LdImm(8, 0), Insn::Allow]).validate(),
            Err(ProgError::BadRegister(0))
        );
        assert_eq!(
            PacketProgram::new(vec![Insn::Jmp(7)]).validate(),
            Err(ProgError::BadTarget(0))
        );
        assert_eq!(
            PacketProgram::allow_all().with_fuel(0).validate(),
            Err(ProgError::BadFuel)
        );
        assert_eq!(
            PacketProgram::allow_all()
                .with_fuel(MAX_FUEL + 1)
                .validate(),
            Err(ProgError::BadFuel)
        );
        let long = PacketProgram::new(vec![Insn::Allow; MAX_PROGRAM_LEN + 1]);
        assert_eq!(long.validate(), Err(ProgError::TooLong));
    }

    #[test]
    fn flow_invariance_detection() {
        assert!(PacketProgram::allow_all().flow_invariant());
        let reads_len = PacketProgram::new(vec![Insn::Ld(0, Field::Len), Insn::Allow]);
        assert!(!reads_len.flow_invariant());
        let reads_ttl = PacketProgram::new(vec![Insn::Ld(0, Field::Ttl), Insn::Allow]);
        assert!(!reads_ttl.flow_invariant());
        let reads_ports = PacketProgram::new(vec![Insn::Ld(0, Field::DstPort), Insn::Allow]);
        assert!(reads_ports.flow_invariant());
    }

    #[test]
    fn v6_addresses_fold() {
        let mut v6 = pkt();
        v6.src = "2804:269c::1".parse().unwrap();
        let p = PacketProgram::new(vec![Insn::Ld(0, Field::SrcAddr), Insn::Allow]);
        // Just exercises the fold path; the fold is deterministic.
        assert_eq!(p.run(&v6).0, ProgOutcome::Allow);
        assert_eq!(
            PacketView::basic(v6.src, 10).field(Field::SrcAddr),
            v6.field(Field::SrcAddr)
        );
    }
}
