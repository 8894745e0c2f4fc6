//! The assembled physical bus: layout + parasitics + coupling + repeatered
//! line, sized per the paper's §3 design recipe.

use razorbus_process::{DroopModel, ProcessCorner, PvtCorner, Repeater, TechnologyNode};
use razorbus_units::{
    Celsius, Femtofarads, Femtojoules, Gigahertz, Millimeters, OhmsPerMillimeter, Picoseconds,
    Volts,
};

use crate::coupling::{CouplingModel, NeighborKind};
use crate::layout::BusLayout;
use crate::line::{DelayCoefficients, RepeatedLine};
use crate::parasitics::WireParasitics;
use crate::sizing::{size_repeater_for_delay, SizingError};

/// Per-cycle electrical summary of the whole bus, produced by
/// [`BusPhysical::analyze_cycle`]. This is the only trace-dependent input
/// the timing/energy tables need — exactly the role of the per-pattern
/// HSPICE tables in §3.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CycleAnalysis {
    /// The largest Miller-weighted effective capacitance (fF/mm) over all
    /// toggling wires — the slowest wire's load this cycle. Zero when no
    /// wire toggles.
    pub worst_ceff_per_mm: f64,
    /// Sum over toggling wires of charge-weighted capacitance (fF/mm):
    /// the data-dependent part of this cycle's switched energy.
    pub switched_cap_per_mm: f64,
    /// Number of wires that toggled.
    pub toggled_wires: u32,
}

impl CycleAnalysis {
    /// Fraction of the bus switching this cycle.
    #[must_use]
    pub fn activity(&self, n_bits: usize) -> f64 {
        f64::from(self.toggled_wires) / n_bits as f64
    }
}

/// Sentinel-coded neighbor for the hot classification loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Signal(u8),
    Shield,
    Open,
}

impl From<NeighborKind> for Slot {
    fn from(n: NeighborKind) -> Self {
        match n {
            NeighborKind::Signal(i) => Slot::Signal(i as u8),
            NeighborKind::Shield => Slot::Shield,
            NeighborKind::Open => Slot::Open,
        }
    }
}

/// The paper's bus as a physical object: 32 signals at minimum pitch with
/// shields every 4, four 1.5 mm repeatered segments, repeaters sized for
/// 600 ps at (slow, 100 °C, 10 % IR, full-activity droop).
///
/// ```
/// use razorbus_wire::BusPhysical;
/// let bus = BusPhysical::paper_default();
/// assert_eq!(bus.layout().n_bits(), 32);
/// assert!(bus.repeater_width() > 10.0);
/// ```
#[derive(Debug, Clone)]
pub struct BusPhysical {
    layout: BusLayout,
    parasitics: WireParasitics,
    coupling: CouplingModel,
    line: RepeatedLine,
    clock: Gigahertz,
    max_path_delay: Picoseconds,
    design_corner: PvtCorner,
    droop: DroopModel,
    /// Flattened neighbor tables for the hot loop.
    slots: Vec<[Slot; 4]>,
    /// Per-wire neighborhood LUT: the slot loop, precompiled to one
    /// lookup per toggling wire (plus an exact alignment fold only when
    /// an opposing aggressor could beat the worst load).
    lut: NeighborhoodLut,
}

/// The first pass's view of one precompiled neighborhood pattern of one
/// wire: everything the slot loop would compute for this (own
/// direction, per-signal-neighbor toggled/direction) combination,
/// folded at table-build time in slot order so the sums are
/// bit-identical to running the loop. Kept apart from the fold terms
/// ([`EntryFold`]) so the table the first pass reads stays small enough
/// to live in cache.
#[derive(Debug, Clone, Copy)]
struct EntryLoads {
    /// `cg + k_delay` when the pattern has no opposing aggressor — the
    /// wire's exact load — else +0.0.
    exact: f64,
    /// `cg + k_delay` with every opposing aggressor at perfect alignment
    /// (`u = 0`) when the pattern has one, else +0.0: an upper bound on
    /// the wire's load (alignment only ever reduces the opposing weight),
    /// used to skip the exact fold when the wire cannot beat the worst.
    bound: f64,
    /// `cg + k_energy` — never alignment-dependent, always exact.
    switched: f64,
}

/// The residual alignment fold's view of the same pattern.
#[derive(Debug, Clone, Copy)]
struct EntryFold {
    /// Slot-ordered delay terms of the non-open slots: the constant
    /// contribution for quiet/aligned/shield slots, `opp_w[side]` for
    /// opposing slots (to be scaled by the per-cycle alignment draw).
    /// Zero-padded to four: a padding term adds an exact +0.0.
    terms: [f64; 4],
    /// Bitmask over `terms`: which are opposing (alignment-dependent).
    opp_mask: u8,
}

/// Per-wire constants of the neighborhood LUT: how to gather the entry
/// index and which physical slots the entry terms correspond to.
#[derive(Debug, Clone, Copy)]
struct LutWire {
    /// Entry-index part of the toggled bits at `i-2..=i+2` (the 5-bit
    /// window, bit `i-2` lowest): each signal neighbor's toggled bit
    /// moved to its key position.
    toggled_key: [u16; 32],
    /// Entry-index part of the current-word bits in the same window:
    /// this wire's entry-block offset plus its own direction bit and
    /// each signal neighbor's direction bit at its key position.
    dir_key: [u16; 32],
    /// Original slot index of each term (for the alignment hash).
    term_slots: [u8; 4],
}

/// The per-wire neighborhood look-up table behind
/// [`BusPhysical::analyze_cycle`]: for every wire, one entry per local
/// (own direction × signal-neighbor toggled/direction) pattern — at most
/// `2^(1+2·4) = 512` entries per wire, typically 32–128 on the paper
/// layout. Rebuilt whenever the parasitics change
/// ([`BusPhysical::with_boosted_coupling`]).
#[derive(Debug, Clone)]
struct NeighborhoodLut {
    wires: Vec<LutWire>,
    loads: Vec<EntryLoads>,
    folds: Vec<EntryFold>,
}

/// Builds the neighborhood LUT. Every arithmetic expression mirrors the
/// reference slot loop ([`BusPhysical::analyze_cycle_reference`])
/// operand-for-operand, so each entry's folded sums are bit-identical to
/// what the loop would produce for that pattern — the all-quiet entry
/// included.
///
/// # Panics
///
/// Panics if a signal neighbor sits more than two bits away from its
/// wire (the window gather reads bits `i-2..=i+2` only), or if the
/// entries outgrow the `u16` gather tables.
fn build_lut(
    slots: &[[Slot; 4]],
    parasitics: &WireParasitics,
    coupling: &CouplingModel,
) -> NeighborhoodLut {
    let cg = parasitics.cg_per_mm().ff();
    let cc = parasitics.cc_per_mm().ff();
    let cc2 = parasitics.cc2_per_mm().ff();
    let m = coupling;
    let static_w = [cc * m.miller_static, cc2 * m.miller_static];
    let same_w = [cc * m.miller_same, cc2 * m.miller_same];
    let opp_w = [cc * m.miller_opposite, cc2 * m.miller_opposite];
    let energy_2w = [cc * 2.0, cc2 * 2.0];

    let mut wires = Vec::with_capacity(slots.len());
    // Sized exactly up front: growing the tables push by push measurably
    // slowed bus construction (every design build pays it).
    let n_entries: usize = slots
        .iter()
        .map(|wire_slots| {
            let n_sig = wire_slots
                .iter()
                .filter(|slot| matches!(slot, Slot::Signal(_)))
                .count();
            1 << (1 + 2 * n_sig)
        })
        .sum();
    let mut loads = Vec::with_capacity(n_entries);
    let mut folds = Vec::with_capacity(n_entries);
    for (i, wire_slots) in slots.iter().enumerate() {
        // Window position (bit `i-2` = 0) of each signal-neighbor slot,
        // in slot order.
        let mut sig_pos = [0usize; 4];
        let mut n_sig = 0usize;
        let mut term_slots = [0u8; 4];
        let mut n_terms = 0usize;
        for (idx, slot) in wire_slots.iter().enumerate() {
            match *slot {
                Slot::Open => {}
                Slot::Shield => {
                    term_slots[n_terms] = idx as u8;
                    n_terms += 1;
                }
                Slot::Signal(j) => {
                    sig_pos[n_sig] = (usize::from(j) + 2)
                        .checked_sub(i)
                        .filter(|&pos| pos <= 4 && pos != 2)
                        .unwrap_or_else(|| {
                            panic!("wire {i}: signal neighbor {j} lies outside the ±2-bit window")
                        });
                    n_sig += 1;
                    term_slots[n_terms] = idx as u8;
                    n_terms += 1;
                }
            }
        }
        let offset = loads.len();
        let mut toggled_key = [0u16; 32];
        let mut dir_key = [0u16; 32];
        for window in 0..32usize {
            let mut t = 0usize;
            let mut d = (window >> 2) & 1;
            for (p, &pos) in sig_pos[..n_sig].iter().enumerate() {
                t |= ((window >> pos) & 1) << (1 + 2 * p);
                d |= ((window >> pos) & 1) << (2 + 2 * p);
            }
            toggled_key[window] = u16::try_from(t).expect("key fits in 9 bits");
            dir_key[window] =
                u16::try_from(offset + d).expect("neighborhood LUT fits u16 entry indices");
        }
        for key in 0..1usize << (1 + 2 * n_sig) {
            let rising = key & 1 == 1;
            let mut k_delay = 0.0f64;
            let mut k_energy = 0.0f64;
            let mut terms = [0.0f64; 4];
            let mut opp_mask = 0u8;
            let mut t = 0usize;
            let mut p = 0usize;
            for (idx, slot) in wire_slots.iter().enumerate() {
                let side = usize::from(idx >= 2);
                match *slot {
                    Slot::Open => {}
                    Slot::Shield => {
                        terms[t] = static_w[side];
                        k_delay += static_w[side];
                        k_energy += if side == 0 { cc } else { cc2 };
                        t += 1;
                    }
                    Slot::Signal(_) => {
                        let toggled_j = (key >> (1 + 2 * p)) & 1 == 1;
                        let cur_j = (key >> (2 + 2 * p)) & 1 == 1;
                        p += 1;
                        if !toggled_j {
                            terms[t] = static_w[side];
                            k_delay += static_w[side];
                            k_energy += if side == 0 { cc } else { cc2 };
                        } else if cur_j == rising {
                            terms[t] = same_w[side];
                            k_delay += same_w[side];
                            // aligned: no charge across the coupling cap
                        } else {
                            terms[t] = opp_w[side];
                            opp_mask |= 1 << t;
                            // Perfect-alignment (u = 0) fold: the exact
                            // load when every draw lands in the atom, an
                            // upper bound otherwise.
                            k_delay += opp_w[side];
                            k_energy += energy_2w[side];
                        }
                        t += 1;
                    }
                }
            }
            let ceff = cg + k_delay;
            let (exact, bound) = if opp_mask == 0 {
                (ceff, 0.0)
            } else {
                (0.0, ceff)
            };
            loads.push(EntryLoads {
                exact,
                bound,
                switched: cg + k_energy,
            });
            folds.push(EntryFold { terms, opp_mask });
        }
        wires.push(LutWire {
            toggled_key,
            dir_key,
            term_slots,
        });
    }
    NeighborhoodLut {
        wires,
        loads,
        folds,
    }
}

impl BusPhysical {
    /// Assembles and sizes a bus.
    ///
    /// `line_proto`'s repeater width is replaced by the sizing result.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SizingError`] when no repeater width meets
    /// `max_path_delay` at the design corner.
    // The constructor takes the full physical parameter set of a bus; a
    // builder would only rename the same eight knobs.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        layout: BusLayout,
        parasitics: WireParasitics,
        coupling: CouplingModel,
        line_proto: RepeatedLine,
        clock: Gigahertz,
        max_path_delay: Picoseconds,
        design_corner: PvtCorner,
        droop: DroopModel,
    ) -> Result<Self, SizingError> {
        assert!(
            layout.n_bits() <= 32,
            "word-oriented analysis supports at most 32 bits"
        );
        let worst_ceff = worst_effective_cap(&layout, &parasitics, &coupling);
        let v_design = nominal_of(&line_proto)
            * (1.0 - design_corner.ir.fraction() - droop.droop_fraction(1.0));
        let width = size_repeater_for_delay(
            &line_proto,
            worst_ceff,
            v_design,
            design_corner.process,
            design_corner.temperature,
            max_path_delay,
        )?;
        let line = line_proto.with_repeater_width(width);
        let slots: Vec<[Slot; 4]> = layout
            .positions()
            .map(|p| {
                [
                    p.left.into(),
                    p.right.into(),
                    p.left2.into(),
                    p.right2.into(),
                ]
            })
            .collect();
        let lut = build_lut(&slots, &parasitics, &coupling);
        Ok(Self {
            layout,
            parasitics,
            coupling,
            line,
            clock,
            max_path_delay,
            design_corner,
            droop,
            slots,
            lut,
        })
    }

    /// The paper's bus (§3): 6 mm, 32 bits, shields every 4 signals,
    /// 1.5 mm repeater spacing, 1.5 GHz clock, 600 ps worst-case target at
    /// (slow, 100 °C, 10 % IR).
    ///
    /// # Panics
    ///
    /// Panics if the reference design fails to size — that would be a bug
    /// in the crate's own defaults, covered by tests.
    #[must_use]
    pub fn paper_default() -> Self {
        let geometry = crate::geometry::WireGeometry::paper_default();
        let parasitics = crate::capextract::CapExtractor::default().extract(&geometry);
        let proto = RepeatedLine::new(
            4,
            Millimeters::new(1.5),
            Repeater::l130(1.0),
            OhmsPerMillimeter::new(85.0),
        );
        Self::build(
            BusLayout::paper_default(),
            parasitics,
            CouplingModel::default(),
            proto,
            Gigahertz::PAPER_CLOCK,
            Picoseconds::new(600.0),
            PvtCorner::WORST,
            DroopModel::l130_default(),
        )
        .expect("paper reference design must size")
    }

    /// The §6 modified bus: coupling ratio boosted by `ratio_boost`
    /// (1.95 in the paper) at constant worst-case load and unchanged
    /// repeaters.
    #[must_use]
    pub fn with_boosted_coupling(&self, ratio_boost: f64) -> Self {
        let (k1w, k2w) = worst_weights(&self.layout, &self.coupling);
        let parasitics = self.parasitics.boost_coupling_ratio(ratio_boost, k1w, k2w);
        // The coupling caps changed, so the neighborhood LUT must be
        // rebuilt from the new parasitics.
        let lut = build_lut(&self.slots, &parasitics, &self.coupling);
        Self {
            parasitics,
            slots: self.slots.clone(),
            layout: self.layout.clone(),
            lut,
            ..self.clone()
        }
    }

    /// A bus in technology `node` for the §6 scaling study: same layout
    /// and length, node-specific wires and devices, repeaters sized to a
    /// node-specific target `slack_factor × (best achievable worst-case
    /// delay)` (the equivalent of the paper bus's 10 % cycle slack).
    ///
    /// Returns the bus together with its design target delay.
    ///
    /// # Errors
    ///
    /// Propagates [`SizingError`] if the node cannot drive the bus at all.
    pub fn for_technology(
        node: TechnologyNode,
        slack_factor: f64,
    ) -> Result<(Self, Picoseconds), SizingError> {
        assert!(slack_factor >= 1.0, "slack factor must be >= 1");
        let parasitics = WireParasitics::new(
            node.wire_ground_cap_per_mm(),
            node.wire_coupling_cap_per_mm(),
            node.wire_coupling_cap_per_mm() * 0.08,
        );
        let device = node.device_model();
        let leakage = razorbus_process::LeakageModel::new(0.012, 0.10, 1.4, device);
        let repeater = Repeater::new(
            1.0,
            node.unit_drive_resistance(),
            node.unit_input_cap(),
            node.unit_parasitic_cap(),
            device,
            leakage,
        );
        let proto = RepeatedLine::new(
            4,
            Millimeters::new(1.5),
            repeater,
            node.wire_resistance_per_mm(),
        );
        let layout = BusLayout::paper_default();
        let coupling = CouplingModel::default();
        let droop = DroopModel::l130_default();
        let corner = PvtCorner::WORST;
        let worst_ceff = worst_effective_cap(&layout, &parasitics, &coupling);
        let v_design =
            node.nominal_supply() * (1.0 - corner.ir.fraction() - droop.droop_fraction(1.0));
        let w_opt = crate::sizing::delay_optimal_width(
            &proto,
            worst_ceff,
            v_design,
            corner.process,
            corner.temperature,
        )?;
        let best = proto.with_repeater_width(w_opt).delay(
            worst_ceff,
            v_design,
            corner.process,
            corner.temperature,
        );
        let target = Picoseconds::new(best.ps() * slack_factor);
        let bus = Self::build(
            layout,
            parasitics,
            coupling,
            proto,
            Gigahertz::from_period(Picoseconds::new(target.ps() / 0.9)),
            target,
            corner,
            droop,
        )?;
        Ok((bus, target))
    }

    /// Track layout.
    #[must_use]
    pub fn layout(&self) -> &BusLayout {
        &self.layout
    }

    /// Extracted (possibly §6-transformed) parasitics.
    #[must_use]
    pub fn parasitics(&self) -> &WireParasitics {
        &self.parasitics
    }

    /// Coupling (Miller) model.
    #[must_use]
    pub fn coupling(&self) -> &CouplingModel {
        &self.coupling
    }

    /// The repeatered line of each bit.
    #[must_use]
    pub fn line(&self) -> &RepeatedLine {
        &self.line
    }

    /// Sized repeater width (unit-inverter multiples).
    #[must_use]
    pub fn repeater_width(&self) -> f64 {
        self.line.repeater().width()
    }

    /// Bus clock.
    #[must_use]
    pub fn clock(&self) -> Gigahertz {
        self.clock
    }

    /// Design worst-case path-delay budget (600 ps for the paper bus:
    /// 10 % of the cycle reserved for setup and clock skew).
    #[must_use]
    pub fn max_path_delay(&self) -> Picoseconds {
        self.max_path_delay
    }

    /// The corner the bus was sized at.
    #[must_use]
    pub fn design_corner(&self) -> PvtCorner {
        self.design_corner
    }

    /// Activity-dependent droop model.
    #[must_use]
    pub fn droop(&self) -> DroopModel {
        self.droop
    }

    /// Nominal supply voltage (the device model's anchor).
    #[must_use]
    pub fn nominal_supply(&self) -> Volts {
        nominal_of(&self.line)
    }

    /// Worst-case Miller-weighted load over all wire positions
    /// (every signal neighbor opposing).
    #[must_use]
    pub fn worst_effective_cap_per_mm(&self) -> Femtofarads {
        worst_effective_cap(&self.layout, &self.parasitics, &self.coupling)
    }

    /// Best-case load over all wire positions (every signal neighbor
    /// aligned) — the short-path load for the hold-time analysis.
    #[must_use]
    pub fn best_effective_cap_per_mm(&self) -> Femtofarads {
        best_effective_cap(&self.layout, &self.parasitics, &self.coupling)
    }

    /// Delay of a wire presenting `ceff_per_mm` at the given condition.
    #[must_use]
    pub fn delay(
        &self,
        ceff_per_mm: Femtofarads,
        v_eff: Volts,
        corner: ProcessCorner,
        t: Celsius,
    ) -> Picoseconds {
        self.line.delay(ceff_per_mm, v_eff, corner, t)
    }

    /// Affine delay decomposition (see [`RepeatedLine::delay_coefficients`]).
    #[must_use]
    pub fn delay_coefficients(&self, corner: ProcessCorner, t: Celsius) -> DelayCoefficients {
        self.line.delay_coefficients(corner, t)
    }

    /// Worst-case delay at the design corner and nominal supply — by
    /// construction equal to the design target (600 ps).
    #[must_use]
    pub fn worst_case_delay_at_design_corner(&self) -> Picoseconds {
        let v_eff = self.nominal_supply()
            * (1.0 - self.design_corner.ir.fraction() - self.droop.droop_fraction(1.0));
        self.delay(
            self.worst_effective_cap_per_mm(),
            v_eff,
            self.design_corner.process,
            self.design_corner.temperature,
        )
    }

    /// Fastest possible bus transit: best-case load, fast process, cold,
    /// full supply, no droop. This is the short-path input to the
    /// shadow-latch hold analysis in `razorbus-ff`.
    #[must_use]
    pub fn min_path_delay(&self) -> Picoseconds {
        self.delay(
            self.best_effective_cap_per_mm(),
            self.nominal_supply(),
            ProcessCorner::Fast,
            Celsius::ROOM,
        )
    }

    /// Leakage energy of the whole bus (all bits' repeaters) per cycle.
    #[must_use]
    pub fn leakage_energy_per_cycle(
        &self,
        v: Volts,
        corner: ProcessCorner,
        t: Celsius,
    ) -> Femtojoules {
        self.line
            .leakage_energy_per_cycle(v, corner, t, self.clock.period())
            * self.layout.n_bits() as f64
    }

    /// Classifies one bus cycle: per-wire transitions from `prev`/`cur`
    /// words, Miller-weighted worst load, charge-weighted switched
    /// capacitance and toggle count.
    ///
    /// The slot loop is precompiled into a per-wire neighborhood LUT:
    /// each toggling wire's delay/energy sums are one table lookup whose
    /// index two per-wire gather tables read straight off the 5-bit
    /// toggled and direction windows around the wire. A first pass,
    /// written without data-dependent branches, adds up the switched
    /// capacitance, takes the max over entries with no opposing
    /// aggressor and lists the rest as candidates with their
    /// perfect-alignment upper bounds. A second
    /// pass runs the exact alignment fold for the candidate with the
    /// largest bound first, then only for candidates whose bound still
    /// beats the worst load — a skipped fold is ≤ its bound ≤ worst, so
    /// it cannot change the max. Bit-identical to
    /// [`BusPhysical::analyze_cycle_reference`] by construction — each
    /// entry stores the same slot-ordered f64 sums, the switched sum is
    /// accumulated in ascending wire order, each fold replays the
    /// slot-ordered term sequence exactly, and the f64 max over
    /// per-wire loads is order-independent — pinned by unit and
    /// property tests.
    #[must_use]
    pub fn analyze_cycle(&self, prev: u32, cur: u32) -> CycleAnalysis {
        let toggled = (prev ^ cur) & self.layout.word_mask();
        if toggled == 0 {
            return CycleAnalysis::default();
        }

        // Bit `i - 2` of a word lands on bit 0 of `(word << 2) >> i`, so
        // masking with 31 reads the window `i-2..=i+2` for every wire —
        // edge windows simply see zeros past the bus.
        let toggled_win = u64::from(toggled) << 2;
        let cur_win = u64::from(cur) << 2;

        let mut worst: f64 = 0.0;
        let mut switched: f64 = 0.0;
        // Opposing candidates as `entry << 5 | wire`; `top` is the one
        // with the largest bound.
        let mut cands = [0u32; 32];
        let mut n_cands = 0usize;
        let mut top = 0usize;
        let mut top_bound: f64 = 0.0;

        let mut bits = toggled;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let w = &self.lut.wires[i];
            let idx = usize::from(w.toggled_key[((toggled_win >> i) & 31) as usize])
                + usize::from(w.dir_key[((cur_win >> i) & 31) as usize]);
            let e = &self.lut.loads[idx];
            // f64 addition order is part of the bit-identity contract.
            switched += e.switched;
            // An entry is either exact or a candidate; its other field is
            // +0.0, which never wins a max. Every wire is written to the
            // candidate list, but only candidates advance it.
            worst = worst.max(e.exact);
            cands[n_cands] = (idx as u32) << 5 | i as u32;
            top = if e.bound > top_bound { n_cands } else { top };
            top_bound = top_bound.max(e.bound);
            n_cands += usize::from(e.bound > 0.0);
        }

        if n_cands > 0 {
            cands.swap(0, top);
            for (k, &c) in cands[..n_cands].iter().enumerate() {
                let (i, idx) = ((c & 31) as usize, (c >> 5) as usize);
                if k == 0 || self.lut.loads[idx].bound > worst {
                    worst = worst.max(self.fold_entry(prev, cur, i, idx));
                }
            }
        }

        CycleAnalysis {
            worst_ceff_per_mm: worst,
            switched_cap_per_mm: switched,
            toggled_wires: toggled.count_ones(),
        }
    }

    /// A reusable analysis context over this bus: same classification as
    /// [`BusPhysical::analyze_cycle`], behind a whole-cycle result cache.
    /// Opposing-dense traffic (crosstalk storms) cycles through a small
    /// set of worst patterns, so the cache is an exact-key lookup that
    /// returns the previously computed bits verbatim.
    #[must_use]
    pub fn analyzer(&self) -> CycleAnalyzer<'_> {
        CycleAnalyzer::new(self)
    }

    /// Exact effective load of toggling wire `i`: replays LUT entry
    /// `entry`'s slot-ordered term sequence with the alignment hash
    /// evaluated for each opposing aggressor. All four terms go through
    /// the same straight-line body: a non-opposing term is scaled by an
    /// exact 1.0 and a padding term is +0.0, so neither changes a bit.
    #[inline]
    fn fold_entry(&self, prev: u32, cur: u32, i: usize, entry: usize) -> f64 {
        let w = &self.lut.wires[i];
        let e = &self.lut.folds[entry];
        let m = &self.coupling;
        let mut k = 0.0f64;
        for (t, (&v, &slot)) in e.terms.iter().zip(&w.term_slots).enumerate() {
            let u = m.misalignment(crate::coupling::alignment_unit(
                prev,
                cur,
                i,
                usize::from(slot),
            ));
            let scale = if e.opp_mask & (1 << t) != 0 {
                1.0 - m.alignment_spread * u
            } else {
                1.0
            };
            k += v * scale;
        }
        self.parasitics.cg_per_mm().ff() + k
    }

    /// The reference implementation of [`BusPhysical::analyze_cycle`]:
    /// the full per-slot classification loop with no precomputed tables
    /// and no LUT. Slower, but trivially auditable — kept so
    /// differential and property tests can pin the LUT-backed hot path
    /// to it bitwise on every pattern.
    #[must_use]
    pub fn analyze_cycle_reference(&self, prev: u32, cur: u32) -> CycleAnalysis {
        let toggled = (prev ^ cur) & self.layout.word_mask();
        if toggled == 0 {
            return CycleAnalysis::default();
        }

        let cg = self.parasitics.cg_per_mm().ff();
        let cc = self.parasitics.cc_per_mm().ff();
        let cc2 = self.parasitics.cc2_per_mm().ff();
        let m = &self.coupling;

        let mut worst: f64 = 0.0;
        let mut switched: f64 = 0.0;
        let mut count: u32 = 0;

        let mut bits = toggled;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            count += 1;
            let rising = (cur >> i) & 1 == 1;

            let mut k_delay = 0.0;
            let mut k_energy = 0.0;
            for (idx, slot) in self.slots[i].iter().enumerate() {
                let scale = if idx < 2 { cc } else { cc2 };
                match *slot {
                    Slot::Open => {}
                    Slot::Shield => {
                        k_delay += scale * m.miller_static;
                        k_energy += scale;
                    }
                    Slot::Signal(j) => {
                        let j = usize::from(j);
                        if (toggled >> j) & 1 == 0 {
                            k_delay += scale * m.miller_static;
                            k_energy += scale;
                        } else if ((cur >> j) & 1 == 1) == rising {
                            k_delay += scale * m.miller_same;
                            // aligned: no charge across the coupling cap
                        } else {
                            let u =
                                m.misalignment(crate::coupling::alignment_unit(prev, cur, i, idx));
                            k_delay += scale * m.miller_opposite * (1.0 - m.alignment_spread * u);
                            k_energy += scale * 2.0;
                        }
                    }
                }
            }
            let ceff = cg + k_delay;
            if ceff > worst {
                worst = ceff;
            }
            switched += cg + k_energy;
        }

        CycleAnalysis {
            worst_ceff_per_mm: worst,
            switched_cap_per_mm: switched,
            toggled_wires: count,
        }
    }

    /// Per-wire Miller-weighted effective capacitance (fF/mm) for one
    /// cycle; `None` for wires that do not toggle. Allocates — intended
    /// for validation and inspection, not the hot loop (use
    /// [`BusPhysical::analyze_cycle`] there).
    #[must_use]
    pub fn per_wire_effective_caps(&self, prev: u32, cur: u32) -> Vec<Option<Femtofarads>> {
        let n = self.layout.n_bits();
        let toggled = (prev ^ cur) & self.layout.word_mask();
        let cg = self.parasitics.cg_per_mm().ff();
        let cc = self.parasitics.cc_per_mm().ff();
        let cc2 = self.parasitics.cc2_per_mm().ff();
        let m = &self.coupling;
        (0..n)
            .map(|i| {
                if (toggled >> i) & 1 == 0 {
                    return None;
                }
                let rising = (cur >> i) & 1 == 1;
                let mut k = 0.0;
                for (idx, slot) in self.slots[i].iter().enumerate() {
                    let scale = if idx < 2 { cc } else { cc2 };
                    k += match *slot {
                        Slot::Open => 0.0,
                        Slot::Shield => scale * m.miller_static,
                        Slot::Signal(j) => {
                            let j = usize::from(j);
                            if (toggled >> j) & 1 == 0 {
                                scale * m.miller_static
                            } else if ((cur >> j) & 1 == 1) == rising {
                                scale * m.miller_same
                            } else {
                                let u = m.misalignment(crate::coupling::alignment_unit(
                                    prev, cur, i, idx,
                                ));
                                scale * m.miller_opposite * (1.0 - m.alignment_spread * u)
                            }
                        }
                    };
                }
                Some(Femtofarads::new(cg + k))
            })
            .collect()
    }
}

/// Slots in the analyzer's cycle-level cache (direct-mapped, 32 bytes
/// each — 8 KiB total). Storm and burst generators emit a handful of
/// distinct word pairs by construction, so a tiny cache catches nearly
/// every repeat; random traffic whiffs and pays one hash + compare.
const CYCLE_SLOTS: usize = 256;

/// One cached whole-cycle classification. `prev == cur` marks an empty
/// slot: equal words toggle nothing, and toggle-free cycles return
/// before the cache is consulted.
#[derive(Clone, Copy)]
struct CycleSlot {
    prev: u32,
    cur: u32,
    result: CycleAnalysis,
}

/// A per-thread cycle-analysis context: [`BusPhysical::analyze_cycle`]
/// behind an exact-keyed cache of whole [`CycleAnalysis`] results per
/// `(prev, cur)` word pair — the classification is a pure function of
/// exactly that pair — so pattern-repeating traffic (crosstalk storms
/// alternate between two worst-case words) collapses to one probe per
/// cycle. Create one per compile/summary loop via
/// [`BusPhysical::analyzer`] and feed it consecutive cycles; results are
/// bit-identical to the cache-free path at every cycle (the key is
/// exact), pinned by differential tests.
pub struct CycleAnalyzer<'a> {
    bus: &'a BusPhysical,
    cycles: Vec<CycleSlot>,
}

impl<'a> CycleAnalyzer<'a> {
    fn new(bus: &'a BusPhysical) -> Self {
        Self {
            bus,
            cycles: vec![
                CycleSlot {
                    prev: 0,
                    cur: 0,
                    result: CycleAnalysis::default(),
                };
                CYCLE_SLOTS
            ],
        }
    }

    /// Classifies one bus cycle; see [`BusPhysical::analyze_cycle`].
    #[must_use]
    pub fn analyze(&mut self, prev: u32, cur: u32) -> CycleAnalysis {
        if (prev ^ cur) & self.bus.layout.word_mask() == 0 {
            return CycleAnalysis::default();
        }
        let key = u64::from(prev) << 32 | u64::from(cur);
        let h = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize;
        let slot = &mut self.cycles[h % CYCLE_SLOTS];
        if slot.prev == prev && slot.cur == cur {
            return slot.result;
        }
        let result = self.bus.analyze_cycle(prev, cur);
        *slot = CycleSlot { prev, cur, result };
        result
    }

    /// The bus this analyzer classifies cycles for.
    #[must_use]
    pub fn bus(&self) -> &'a BusPhysical {
        self.bus
    }
}

fn nominal_of(line: &RepeatedLine) -> Volts {
    line.repeater().device().v_nominal()
}

fn weight_of(slot: NeighborKind, signal_weight: f64, coupling: &CouplingModel) -> f64 {
    match slot {
        NeighborKind::Signal(_) => signal_weight,
        NeighborKind::Shield => coupling.miller_static,
        NeighborKind::Open => 0.0,
    }
}

/// Worst-case combined (first, second) neighbor delay weights over the
/// layout, with every signal opposing.
fn worst_weights(layout: &BusLayout, coupling: &CouplingModel) -> (f64, f64) {
    let mut best = (0.0f64, 0.0f64, 0.0f64);
    for p in layout.positions() {
        let k1 = weight_of(p.left, coupling.miller_opposite, coupling)
            + weight_of(p.right, coupling.miller_opposite, coupling);
        let k2 = weight_of(p.left2, coupling.miller_opposite, coupling)
            + weight_of(p.right2, coupling.miller_opposite, coupling);
        // Rank by what it does at the paper's cc2/cc ratio.
        let score = k1 + 0.1 * k2;
        if score > best.0 {
            best = (score, k1, k2);
        }
    }
    (best.1, best.2)
}

fn worst_effective_cap(
    layout: &BusLayout,
    parasitics: &WireParasitics,
    coupling: &CouplingModel,
) -> Femtofarads {
    layout
        .positions()
        .map(|p| {
            let k1 = weight_of(p.left, coupling.miller_opposite, coupling)
                + weight_of(p.right, coupling.miller_opposite, coupling);
            let k2 = weight_of(p.left2, coupling.miller_opposite, coupling)
                + weight_of(p.right2, coupling.miller_opposite, coupling);
            parasitics.effective_cap_per_mm(k1, k2)
        })
        .fold(Femtofarads::ZERO, Femtofarads::max)
}

fn best_effective_cap(
    layout: &BusLayout,
    parasitics: &WireParasitics,
    coupling: &CouplingModel,
) -> Femtofarads {
    layout
        .positions()
        .map(|p| {
            let k1 = weight_of(p.left, coupling.miller_same, coupling)
                + weight_of(p.right, coupling.miller_same, coupling);
            let k2 = weight_of(p.left2, coupling.miller_same, coupling)
                + weight_of(p.right2, coupling.miller_same, coupling);
            parasitics.effective_cap_per_mm(k1, k2)
        })
        .fold(Femtofarads::new(f64::INFINITY), Femtofarads::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> BusPhysical {
        BusPhysical::paper_default()
    }

    #[test]
    fn paper_bus_meets_600ps_at_design_corner() {
        let b = bus();
        let d = b.worst_case_delay_at_design_corner();
        assert!((d.ps() - 600.0).abs() < 0.5, "d = {d}");
    }

    #[test]
    fn typical_corner_is_faster_than_design_corner() {
        let b = bus();
        let d_typ = b.delay(
            b.worst_effective_cap_per_mm(),
            Volts::new(1.2),
            ProcessCorner::Typical,
            Celsius::HOT,
        );
        assert!(
            d_typ.ps() < 560.0,
            "typical 1.2V worst-pattern delay {d_typ}"
        );
    }

    #[test]
    fn min_path_is_well_below_max_path() {
        let b = bus();
        let min = b.min_path_delay();
        assert!(min.ps() < 400.0 && min.ps() > 50.0, "min path {min}");
    }

    #[test]
    fn quiet_cycle_analysis_is_zero() {
        let a = bus().analyze_cycle(0xDEAD_BEEF, 0xDEAD_BEEF);
        assert_eq!(a, CycleAnalysis::default());
    }

    #[test]
    fn single_bit_toggle_sees_static_neighbors() {
        let b = bus();
        // Bit 1 toggles alone: both signal neighbors quiet + shield at
        // distance 2 -> k1 = 2 static, k2 = static + quiet signal.
        let a = b.analyze_cycle(0, 1 << 1);
        let p = b.parasitics();
        let expect = p.cg_per_mm().ff() + 2.0 * p.cc_per_mm().ff() + 2.0 * p.cc2_per_mm().ff();
        assert!((a.worst_ceff_per_mm - expect).abs() < 1e-9);
        assert_eq!(a.toggled_wires, 1);
        // Energy: quiet neighbors contribute weight 1 each.
        assert!((a.switched_cap_per_mm - expect).abs() < 1e-9);
    }

    #[test]
    fn opposing_neighbors_hit_worst_class() {
        let b = bus();
        // Bits 0,1,2: 1 rises while 0 and 2 fall -> victim 1 sees both
        // neighbors opposite.
        let prev = 0b101;
        let cur = 0b010;
        let a = b.analyze_cycle(prev, cur);
        let p = b.parasitics();
        let m = b.coupling();
        // Victim bit 1: k1 = 2*opposite*cc (modulo alignment), second:
        // left2 shield static, right2 signal(3) quiet static.
        let base = p.cg_per_mm().ff() + 2.0 * m.miller_static * p.cc2_per_mm().ff();
        let full = base + 2.0 * m.miller_opposite * p.cc_per_mm().ff();
        let least =
            base + 2.0 * m.miller_opposite * (1.0 - m.alignment_spread) * p.cc_per_mm().ff();
        assert!(
            a.worst_ceff_per_mm <= full + 1e-9 && a.worst_ceff_per_mm >= least - 1e-9,
            "got {} expected within [{least}, {full}]",
            a.worst_ceff_per_mm
        );
        assert_eq!(a.toggled_wires, 3);
        // And the detailed per-wire view agrees with the cycle analysis.
        let details = b.per_wire_effective_caps(prev, cur);
        let max_detail = details
            .iter()
            .flatten()
            .fold(0.0f64, |acc, c| acc.max(c.ff()));
        assert!((max_detail - a.worst_ceff_per_mm).abs() < 1e-9);
    }

    #[test]
    fn aligned_neighbors_hit_best_class() {
        let b = bus();
        // All of group 0 rises together.
        let a = b.analyze_cycle(0, 0b1111);
        let p = b.parasitics();
        let m = b.coupling();
        // Interior victims (bits 1,2): both neighbors aligned; second
        // neighbors: one shield (static), one aligned signal.
        let interior = p.cg_per_mm().ff()
            + 2.0 * m.miller_same * p.cc_per_mm().ff()
            + (m.miller_static + m.miller_same) * p.cc2_per_mm().ff();
        // Edge victims (bits 0,3): shield static + aligned signal.
        let edge = p.cg_per_mm().ff()
            + (m.miller_static + m.miller_same) * p.cc_per_mm().ff()
            + m.miller_same * p.cc2_per_mm().ff();
        assert!((a.worst_ceff_per_mm - edge.max(interior)).abs() < 1e-9);
        // Aligned coupling caps carry no charge; shields do.
        assert!(a.switched_cap_per_mm > 0.0);
    }

    #[test]
    fn worst_cap_exceeds_best_cap_substantially() {
        let b = bus();
        let spread = b.worst_effective_cap_per_mm().ff() / b.best_effective_cap_per_mm().ff();
        assert!(spread > 2.0, "pattern spread {spread}");
    }

    #[test]
    fn analyze_cycle_fast_path_matches_per_wire_reference() {
        // per_wire_effective_caps and analyze_cycle_reference keep the
        // original full slot loop, so the LUT-backed hot path must
        // reproduce their results *bitwise* on every pattern — isolated
        // toggles (all-quiet entries), dense toggles (candidates and
        // alignment folds), and mixtures, on both the paper bus and the
        // boosted-coupling variant (whose tables are rebuilt).
        for b in [bus(), bus().with_boosted_coupling(1.95)] {
            let mut x = 0x1234_5678_9ABC_DEFFu64;
            let mut prev = 0u32;
            for step in 0..2_000u32 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let cur = match step % 4 {
                    0 => prev ^ (1 << (x % 32)),             // isolated toggle
                    1 => (x >> 32) as u32,                   // dense random
                    2 => prev,                               // no toggle
                    _ => prev ^ ((x >> 32) as u32 & 0x1111), // scattered
                };
                let a = b.analyze_cycle(prev, cur);
                assert_eq!(a, b.analyze_cycle_reference(prev, cur), "step {step}");
                let per_wire = b.per_wire_effective_caps(prev, cur);
                let worst_ref = per_wire
                    .iter()
                    .flatten()
                    .map(|c| c.ff())
                    .fold(0.0f64, f64::max);
                assert_eq!(a.worst_ceff_per_mm, worst_ref, "step {step}");
                assert_eq!(
                    a.toggled_wires,
                    per_wire.iter().flatten().count() as u32,
                    "step {step}"
                );
                prev = cur;
            }
        }
    }

    #[test]
    fn analyzer_memo_matches_memo_free_path_bitwise() {
        // The analyzer's whole-cycle cache must be invisible in the
        // results: its key is the exact (prev, cur) word pair, so a hit
        // returns the identical bits analyze_cycle would produce. Drive
        // storm (alternating opposing phases, high hit rate), dense
        // random, and random-walk sequences through a long-lived
        // analyzer and require bitwise equality with the cache-free
        // path at every cycle, on both table variants.
        for b in [bus(), bus().with_boosted_coupling(1.95)] {
            let mut analyzer = b.analyzer();
            let mut x = 0xFEED_F00D_1234_5678u64;
            let mut prev = 0x5555_5555u32;
            for step in 0..3_000u32 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let phase = (step / 50) % 3;
                let cur = match phase {
                    0 => !prev,                                   // storm: two words alternate
                    1 => (x >> 32) as u32,                        // dense random
                    _ => prev ^ ((x >> 32) as u32 & 0x8421_8421), // random walk
                };
                assert_eq!(
                    analyzer.analyze(prev, cur),
                    b.analyze_cycle(prev, cur),
                    "step {step}"
                );
                if phase == 0 && step % 50 == 49 {
                    // The storm's other word pair is still cached, so the
                    // phase's repeats were served by the cache.
                    assert!(
                        analyzer
                            .cycles
                            .iter()
                            .any(|s| s.prev == cur && s.cur == prev),
                        "step {step}"
                    );
                }
                prev = cur;
            }
        }
    }

    #[test]
    fn boosted_bus_keeps_worst_case_delay() {
        let b = bus();
        let boosted = b.with_boosted_coupling(1.95);
        let before = b.worst_case_delay_at_design_corner();
        let after = boosted.worst_case_delay_at_design_corner();
        assert!(
            (before.ps() - after.ps()).abs() < 1.0,
            "worst-case delay moved: {before} -> {after}"
        );
        // But the fastest path gets faster (the §6 hold-time caveat).
        assert!(boosted.min_path_delay() < b.min_path_delay());
        // And the coupling ratio really is 1.95x.
        let ratio = boosted.parasitics().coupling_ratio() / b.parasitics().coupling_ratio();
        assert!((ratio - 1.95).abs() < 1e-9);
    }

    #[test]
    fn technology_nodes_all_size() {
        for node in TechnologyNode::ALL {
            let (bus, target) = BusPhysical::for_technology(node, 1.10).unwrap();
            let d = bus.worst_case_delay_at_design_corner();
            assert!(
                (d.ps() - target.ps()).abs() < 0.5,
                "{node}: {d} vs target {target}"
            );
        }
    }

    #[test]
    fn activity_fraction() {
        let a = bus().analyze_cycle(0, 0xFFFF_FFFF);
        assert_eq!(a.toggled_wires, 32);
        assert!((a.activity(32) - 1.0).abs() < 1e-12);
    }
}
