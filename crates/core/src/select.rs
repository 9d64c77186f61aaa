//! Substring selection strategies (paper §4).
//!
//! For a probe string `s` and an inverted index `L_l^i` (the i-th segments
//! of the indexed strings of length `l`), a selection strategy decides which
//! substrings of `s` to look up. All four strategies from the paper are
//! implemented; each returns a window of start positions, every strategy's
//! window containing the next one's (Lemma 3):
//!
//! * [`Selection::Length`] — every substring of the segment length
//!   (`|s|−l_i+1` positions);
//! * [`Selection::Shift`] — positions within τ of the segment start
//!   (`2τ+1` positions, after Wang et al.'s entity-extraction filter);
//! * [`Selection::Position`] — positions consistent with the edit budget
//!   split across the left/right parts (§4.1, ≤ τ+1 positions);
//! * [`Selection::MultiMatch`] — additionally discards occurrences whose
//!   left part already needs ≥ i edits (a later segment must then match)
//!   and symmetrically from the right (§4.2); proved minimal among complete
//!   methods (Theorems 3–4), `⌊(τ²−Δ²)/2⌋ + τ + 1` positions per probe
//!   length (Lemma 2).
//!
//! Windows are computed in O(1) per (length, slot); the returned range is
//! already clamped to valid substring starts.

use crate::partition::SegmentSpec;
use std::ops::Range;

/// Substring-selection strategy (paper §4). `MultiMatch` is the paper's
/// recommended default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Selection {
    /// All substrings with the segment length (`Length` in Figure 12).
    Length,
    /// Start positions within `[p_i − τ, p_i + τ]` (`Shift` in Figure 12).
    Shift,
    /// Position-aware windows of §4.1 (`Position` in Figure 12).
    Position,
    /// Multi-match-aware windows of §4.2 (`Multi-Match` in Figure 12);
    /// minimal among complete selections.
    #[default]
    MultiMatch,
}

impl Selection {
    /// Short name used in benchmark tables.
    pub fn name(&self) -> &'static str {
        match self {
            Selection::Length => "length",
            Selection::Shift => "shift",
            Selection::Position => "position",
            Selection::MultiMatch => "multi-match",
        }
    }

    /// All four strategies, in the paper's Figure 12 order.
    pub fn all() -> [Selection; 4] {
        [
            Selection::Length,
            Selection::Shift,
            Selection::Position,
            Selection::MultiMatch,
        ]
    }

    /// The window of substring start positions (0-based) of a probe string
    /// of length `s_len` to look up in `L_l^i`, where `seg` is segment
    /// `slot` (1-based) of the even partition of length `l` and
    /// `|s_len − l| ≤ tau`.
    ///
    /// The returned range is clamped to `[0, s_len − seg.len]`; it is empty
    /// when no position can produce a similar pair (e.g. `s_len < seg.len`).
    pub fn window(
        &self,
        s_len: usize,
        l: usize,
        seg: SegmentSpec,
        slot: usize,
        tau: usize,
    ) -> Range<usize> {
        debug_assert!(s_len.abs_diff(l) <= tau, "length filter must hold");
        if s_len < seg.len {
            return 0..0;
        }
        let max_start = s_len - seg.len; // inclusive upper clamp
        let p = seg.start as isize;
        let delta = s_len as isize - l as isize; // Δ = |s| − l, signed
        let tau_i = tau as isize;
        let slot_i = slot as isize;

        let (lo, hi) = match self {
            Selection::Length => (0, max_start as isize),
            Selection::Shift => (p - tau_i, p + tau_i),
            Selection::Position => {
                // p_min = p − ⌊(τ−Δ)/2⌋, p_max = p + ⌊(τ+Δ)/2⌋ (§4.1).
                // Both numerators are ≥ 0 because |Δ| ≤ τ.
                (p - (tau_i - delta) / 2, p + (tau_i + delta) / 2)
            }
            Selection::MultiMatch => {
                // Left-side pigeonhole: |pos − p| ≤ i − 1 (§4.2).
                let (l_lo, l_hi) = (p - (slot_i - 1), p + (slot_i - 1));
                // Right-side pigeonhole: |pos − (p + Δ)| ≤ τ + 1 − i.
                let r_reach = tau_i + 1 - slot_i;
                let (r_lo, r_hi) = (p + delta - r_reach, p + delta + r_reach);
                (l_lo.max(r_lo), l_hi.min(r_hi))
            }
        };

        let lo = lo.clamp(0, max_start as isize + 1) as usize;
        let hi_exclusive = (hi + 1).clamp(lo as isize, max_start as isize + 1) as usize;
        lo..hi_exclusive
    }
}

/// The substring window for probing a **τ_max-partitioned index with a
/// per-query threshold** `tau_query ≤ tau_index` when *every* slot is
/// probed.
///
/// The paper's multi-match window ties the partition granularity and the
/// edit budget to the same τ; here they may differ, so the window is the
/// intersection of two independently complete bounds:
///
/// * the multi-match pigeonhole of the **index geometry** (§4.2 with
///   `m = tau_index + 1` segments): some preserved segment `i` matches at a
///   shift within `i − 1` from the left and `tau_index + 1 − i` from the
///   right — the proof only needs `m ≥ e + 1`, which `e ≤ tau_query ≤
///   tau_index` guarantees;
/// * the position-aware bound of the **query budget** (§4.1): any segment
///   preserved by a ≤ `tau_query` transcript matches within
///   `[p − ⌊(τ_q−Δ)/2⌋, p + ⌊(τ_q+Δ)/2⌋]`.
///
/// The multi-match witness occurrence is transcript-aligned, hence inside
/// both bounds, so the intersection is complete. For
/// `tau_query == tau_index` it is at least as tight as
/// [`Selection::MultiMatch`].
///
/// The online engine (`passjoin-online`) calls this only at
/// `tau_query == tau_index`. Below that, it does not probe every slot:
/// the pigeonhole holds for any `tau_query + 1` disjoint segments, so per
/// length it sums the list lengths over each slot's
/// [`Selection::Position`] window at `tau_query` and screens only the
/// `tau_query + 1` slots with the smallest totals. The multi-match
/// pigeonhole, and with it this window, only holds when every slot is
/// probed.
pub fn online_window(
    s_len: usize,
    l: usize,
    seg: SegmentSpec,
    slot: usize,
    tau_index: usize,
    tau_query: usize,
) -> Range<usize> {
    debug_assert!(
        tau_query <= tau_index,
        "per-query τ exceeds the index τ_max"
    );
    debug_assert!(s_len.abs_diff(l) <= tau_query, "length filter must hold");
    if s_len < seg.len {
        return 0..0;
    }
    let max_start = s_len - seg.len; // inclusive upper clamp
    let p = seg.start as isize;
    let delta = s_len as isize - l as isize; // Δ = |s| − l, signed
    let ti = tau_index as isize;
    let tq = tau_query as isize;
    let slot_i = slot as isize;

    // Multi-match pigeonhole over the index geometry.
    let r_reach = ti + 1 - slot_i;
    let mut lo = (p - (slot_i - 1)).max(p + delta - r_reach);
    let mut hi = (p + (slot_i - 1)).min(p + delta + r_reach);
    // Position-aware bound for the query budget.
    lo = lo.max(p - (tq - delta) / 2);
    hi = hi.min(p + (tq + delta) / 2);

    let lo = lo.clamp(0, max_start as isize + 1) as usize;
    let hi_exclusive = (hi + 1).clamp(lo as isize, max_start as isize + 1) as usize;
    lo..hi_exclusive
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::segment;

    /// Collects the selected substrings of `s` against index length `l` for
    /// all τ+1 slots, as (slot, start) pairs.
    fn selected(strategy: Selection, s: &[u8], l: usize, tau: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for slot in 1..=tau + 1 {
            let seg = segment(l, tau, slot);
            for start in strategy.window(s.len(), l, seg, slot, tau) {
                out.push((slot, start));
            }
        }
        out
    }

    /// The worked example of §4: r = "vankatesh" (l = 9), s = "avataresha"
    /// (|s| = 10), τ = 3, Δ = 1.
    const S: &[u8] = b"avataresha";
    const L: usize = 9;
    const TAU: usize = 3;

    #[test]
    fn position_windows_match_paper() {
        // §4.1: segment 1 ⇒ substrings "av","va","at" (starts 0,1,2);
        // segment 2 ⇒ "va","at","ta","ar" (starts 1..=4 in 1-based ⇒ 0-based
        // starts 1,2,3... the paper lists 4 substrings starting at p_min=2
        // (1-based) ⇒ 0-based 1.
        let w1 = Selection::Position.window(S.len(), L, segment(L, TAU, 1), 1, TAU);
        assert_eq!(w1, 0..3);
        let w2 = Selection::Position.window(S.len(), L, segment(L, TAU, 2), 2, TAU);
        assert_eq!(w2, 1..5);
        // Total across slots: the paper counts 14 selected substrings.
        assert_eq!(selected(Selection::Position, S, L, TAU).len(), 14);
    }

    #[test]
    fn multi_match_windows_match_paper() {
        // §4.2 final example: slot 1 ⇒ {"av"}; slot 2 ⇒ {"va","at","ta"};
        // slot 3 ⇒ {"ar","re","es"}; slot 4 ⇒ {"sha"}; 8 substrings total.
        let got = selected(Selection::MultiMatch, S, L, TAU);
        let strings: Vec<&[u8]> = got
            .iter()
            .map(|&(slot, start)| {
                let seg = segment(L, TAU, slot);
                &S[start..start + seg.len]
            })
            .collect();
        assert_eq!(
            strings,
            vec![
                b"av".as_slice(),
                b"va",
                b"at",
                b"ta",
                b"ar",
                b"re",
                b"es",
                b"sha",
            ]
        );
        assert_eq!(got.len(), 8);
    }

    #[test]
    fn shift_windows_match_paper_count() {
        // §4: the shift-based method selects 28 substrings in this example
        // before clamping... the paper reports reducing "from 28 to 14" with
        // the position-aware method. With boundary clamping the shift count
        // can only shrink; it must still dominate the position count.
        let shift = selected(Selection::Shift, S, L, TAU).len();
        let position = selected(Selection::Position, S, L, TAU).len();
        assert!(shift >= position);
        assert_eq!(position, 14);
        // Unclamped interior slots have exactly 2τ+1 positions: slot 3
        // starts at p=4, so [4−τ, 4+τ] = [1, 7] fits inside [0, 8].
        let w3 = Selection::Shift.window(S.len(), L, segment(L, TAU, 3), 3, TAU);
        assert_eq!(w3.len(), 2 * TAU + 1);
    }

    #[test]
    fn length_selects_everything() {
        for slot in 1..=TAU + 1 {
            let seg = segment(L, TAU, slot);
            let w = Selection::Length.window(S.len(), L, seg, slot, TAU);
            assert_eq!(w, 0..S.len() - seg.len + 1);
        }
    }

    #[test]
    fn windows_nest_lemma3() {
        // W_m ⊆ W_p ⊆ W_f ⊆ W_ℓ for many geometries.
        for s_len in 4..24usize {
            for tau in 1..5usize {
                for l in s_len.saturating_sub(tau).max(tau + 1)..=s_len + tau {
                    for slot in 1..=tau + 1 {
                        let seg = segment(l, tau, slot);
                        let wl = Selection::Length.window(s_len, l, seg, slot, tau);
                        let wf = Selection::Shift.window(s_len, l, seg, slot, tau);
                        let wp = Selection::Position.window(s_len, l, seg, slot, tau);
                        let wm = Selection::MultiMatch.window(s_len, l, seg, slot, tau);
                        let within = |inner: &Range<usize>, outer: &Range<usize>| {
                            inner.is_empty()
                                || (inner.start >= outer.start && inner.end <= outer.end)
                        };
                        assert!(within(&wm, &wp), "s={s_len} l={l} τ={tau} i={slot}");
                        assert!(within(&wp, &wf), "s={s_len} l={l} τ={tau} i={slot}");
                        assert!(within(&wf, &wl), "s={s_len} l={l} τ={tau} i={slot}");
                    }
                }
            }
        }
    }

    #[test]
    fn multi_match_total_matches_lemma2() {
        // |W_m(s, l)| = ⌊(τ²−Δ²)/2⌋ + τ + 1 when no clamping interferes
        // (long strings, l ≥ 2(τ+1)).
        for tau in 1..6usize {
            for delta in 0..=tau {
                let l = 4 * (tau + 1) + 7; // comfortably ≥ 2(τ+1)
                let s_len = l + delta;
                let total: usize = (1..=tau + 1)
                    .map(|slot| {
                        let seg = segment(l, tau, slot);
                        Selection::MultiMatch.window(s_len, l, seg, slot, tau).len()
                    })
                    .sum();
                assert_eq!(
                    total,
                    (tau * tau - delta * delta) / 2 + tau + 1,
                    "tau={tau} delta={delta}"
                );
            }
        }
    }

    #[test]
    fn position_total_is_tau_plus_one_squared_bound() {
        // |W_p(s, L_l^i)| ≤ τ+1 per slot (§4.1).
        for tau in 1..6usize {
            for delta in 0..=tau {
                let l = 4 * (tau + 1) + 7;
                let s_len = l + delta;
                for slot in 1..=tau + 1 {
                    let seg = segment(l, tau, slot);
                    let w = Selection::Position.window(s_len, l, seg, slot, tau);
                    assert!(w.len() <= tau + 1);
                    assert!(!w.is_empty());
                }
            }
        }
    }

    #[test]
    fn online_window_matches_multi_match_at_equal_taus_up_to_tightening() {
        // With tau_query == tau_index the online window is contained in the
        // paper's multi-match window (it additionally intersects the
        // position bound) and always contains the multi-match ∩ position
        // intersection — i.e. it loses nothing a complete selector keeps.
        for s_len in 4..24usize {
            for tau in 1..5usize {
                for l in s_len.saturating_sub(tau).max(tau + 1)..=s_len + tau {
                    for slot in 1..=tau + 1 {
                        let seg = segment(l, tau, slot);
                        let mm = Selection::MultiMatch.window(s_len, l, seg, slot, tau);
                        let pos = Selection::Position.window(s_len, l, seg, slot, tau);
                        let online = online_window(s_len, l, seg, slot, tau, tau);
                        let within = |inner: &Range<usize>, outer: &Range<usize>| {
                            inner.is_empty()
                                || (inner.start >= outer.start && inner.end <= outer.end)
                        };
                        assert!(within(&online, &mm), "s={s_len} l={l} τ={tau} i={slot}");
                        let both = mm.start.max(pos.start)..mm.end.min(pos.end);
                        assert!(within(&both, &online), "s={s_len} l={l} τ={tau} i={slot}");
                    }
                }
            }
        }
    }

    #[test]
    fn online_window_shrinks_with_query_tau() {
        // Smaller per-query budgets can only shrink the window.
        for s_len in 6..20usize {
            let tau_index = 4usize;
            for l in s_len.saturating_sub(2).max(tau_index + 1)..=s_len + 2 {
                for slot in 1..=tau_index + 1 {
                    let seg = segment(l, tau_index, slot);
                    let delta = s_len.abs_diff(l);
                    let mut prev: Option<Range<usize>> = None;
                    for tq in (delta..=tau_index).rev() {
                        let w = online_window(s_len, l, seg, slot, tau_index, tq);
                        if let Some(prev) = prev {
                            assert!(
                                w.is_empty() || (w.start >= prev.start && w.end <= prev.end),
                                "τ_q={tq} window {w:?} not inside {prev:?}"
                            );
                        }
                        prev = Some(w);
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_windows_are_empty_not_panicking() {
        // Probe shorter than the segment: nothing to select.
        let seg = SegmentSpec { start: 0, len: 5 };
        assert_eq!(Selection::MultiMatch.window(3, 5, seg, 1, 2).len(), 0);
        // τ = 0: the only valid start aligns exactly with the segment.
        let seg = segment(6, 0, 1);
        assert_eq!(seg, SegmentSpec { start: 0, len: 6 });
        assert_eq!(Selection::MultiMatch.window(6, 6, seg, 1, 0), 0..1);
    }
}
