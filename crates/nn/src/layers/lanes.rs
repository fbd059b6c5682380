//! The item-minor layout the conv and linear kernels vectorise over:
//! `LANES` batch items (or output channels) side by side, one lane each.

/// Elements one kernel step updates side by side: one AVX2 register of
/// `f32`, two SSE2 ones.
pub(crate) const LANES: usize = 8;

/// One value of `LANES` independent elements.
pub(crate) type Lanes = [f32; LANES];

/// Items `b0..b0 + LANES` of `flat` (items of `len` values), item-minor;
/// lanes past the last item are zero.
pub(crate) fn to_lanes(flat: &[f32], len: usize, b0: usize, out: &mut Vec<Lanes>) {
    out.clear();
    out.resize(len, [0.0; LANES]);
    for (j, item) in flat[b0 * len..].chunks_exact(len).take(LANES).enumerate() {
        for (o, &v) in out.iter_mut().zip(item) {
            o[j] = v;
        }
    }
}

/// The inverse of [`to_lanes`] for the items that exist.
pub(crate) fn from_lanes(lanes: &[Lanes], len: usize, b0: usize, flat: &mut [f32]) {
    for (j, item) in flat[b0 * len..]
        .chunks_exact_mut(len)
        .take(LANES)
        .enumerate()
    {
        for (v, l) in item.iter_mut().zip(lanes) {
            *v = l[j];
        }
    }
}
