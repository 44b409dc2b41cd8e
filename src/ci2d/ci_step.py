"""One iteration of the stress-reduction scheme.

The pipeline is: mollify the stress at every node and detect the
temporal support of the low-frequency stress, keeping one sup norm per
node; then, one time node at a time (`step_nodes`), mollify the node's
fields again, build smooth coefficients from the geometric
decomposition, add the principal / corrector / temporal perturbations,
and re-assemble the stress and pressure so the forced momentum balance
holds exactly (`_step_node`).  Each new node goes to the caller as soon
as it is made.  Both sweeps read each input slice at most once and hold
it only while the temporal kernel's reach (and, for a track without a
derivative channel, the reach of `fd6_channel`'s stencils) covers it
(`_Window`), so a state whose tracks read their dumps on demand
(`state_io.read_state`) is never held whole.  The node functions take
one mollified node (v_ell, dv_ell, p_ell, R_ls, dR_ls), its time, the
switch's value and slope there, and the toy; their Fourier multipliers
all come from `spectral_field` and `fourier_calculus`.

Time is handled as a first-order jet: every track carries its values and,
where available, an analytic derivative channel, and all linear
operations (including temporal mollification) map both channels the same
way.  The residual verifier (`_slice_residual`) reads only a node's
assembled v, dv, p and R, so it is blind to the intermediate algebra.

Pressure convention: states store the pressure of the trace-free
momentum form.  The classical pressure of the full-tensor form is
p - |v|^2 / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .building_blocks import (Direction, WaveParams, eta, lattice_vector,
                              positive_directions)
from .errors import ConfigError, DerivativeChannelMissing, InvalidInput, NonFiniteValue
from .fourier_calculus import (FreqBand, _band_mask, _inv_lap_div_const, _leray, anti_divergence,
                               frac_laplacian, sym_tracefree_product, tf_square)
from .mollifier import (TemporalKernel, check_padding, smoothstep,
                        smoothstep_prime, spatial_mollify)
from .param_schedule import ToyParams, theta_star
from .spectral_field import (Grid2, SpectralField, TimeTrack, _accumulate,
                             _add_shifted, _analysis, _product_size,
                             _quadrature_norms, _resize, _shift_loss, _zero_coeffs,
                             analyze, combine, divergence, gradient, lp_norm, mean,
                             multiply_mode, perp_grad)
from .stress_geometry import decompose, reconstruct

SUPPORT_RTOL = 1e-13


# -- state ------------------------------------------------------------------

@dataclass
class NSRState:
    """A forced-momentum-balance triple (v, p, stress) with its parameters."""

    v: TimeTrack
    p: TimeTrack
    R: TimeTrack
    theta: float
    nu: float
    q: int = 0
    T: float = 1.0

    @property
    def grid(self) -> Grid2:
        return self.v.grid

    @property
    def times(self) -> np.ndarray:
        return self.v.times


def fd6_channel(track: TimeTrack) -> TimeTrack:
    """Sixth-order centered time differences as a substitute channel.

    Edge nodes fall back to shifted stencils of the same order.
    """
    return TimeTrack(track.times, track.slices,
                     [_fd6_node(track, i, track.slices) for i in range(len(track))])


def _stencil_start(n: int, i: int) -> int:
    """First of the seven nodes of `fd6_channel`'s stencil at node i."""
    return min(max(i - 3, 0), n - 7)


def _fd6_node(track: TimeTrack, i: int, held) -> SpectralField:
    """`fd6_channel` at node i, from the seven nodes of its stencil in held,
    the track's slices by node (a list, or a window's {node: slice})."""
    n = len(track)
    if n < 7:
        raise DerivativeChannelMissing("need at least 7 nodes for the difference channel")
    dt = track.dt
    j0 = _stencil_start(n, i)
    if i - j0 == 3:
        coefs = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / (60.0 * dt)
    else:
        coefs = _shifted_diff_weights(i - j0) / dt
    return combine([held[j] for j in range(j0, j0 + 7)], coefs)


def _shifted_diff_weights(pos: int) -> np.ndarray:
    """First-derivative weights at node `pos` of a 7-point unit-spaced stencil."""
    xs = np.arange(7, dtype=float) - pos
    V = np.vander(xs, 7, increasing=True).T
    rhs = np.zeros(7)
    rhs[1] = 1.0
    return np.linalg.solve(V, rhs)


def _channel(track: TimeTrack, i: int, held) -> SpectralField:
    """d/dt of the track at node i: its channel, or `fd6_channel`'s stencil
    over held (see `_fd6_node`)."""
    return track.dslices[i] if track.has_channel() else _fd6_node(track, i, held)


# -- initialization ---------------------------------------------------------

def init_state(u: TimeTrack, theta: float, nu: float, T: float) -> NSRState:
    """Wrap a smooth divergence-free mean-zero track as an exact state.

    The stress absorbs the linear terms through the anti-divergence and
    the trace-free self-product; with the trace-free pressure convention
    the pressure starts at zero.  Divergence and mean must vanish to 1e-8
    of max(1, ||u||_L2) on every slice.
    """
    for j, s in enumerate(u.slices):
        tol = 1e-8 * max(1.0, lp_norm(s, 2))
        if not lp_norm(divergence(s), 2) <= tol:   # a NaN trips it too
            raise InvalidInput(f"input slice {j} is not divergence-free")
        if not np.max(np.abs(mean(s))) <= tol:
            raise InvalidInput(f"input slice {j} has nonzero mean")
    du = [_channel(u, i, u.slices) for i in range(len(u))]
    du2 = fd6_channel(TimeTrack(u.times, du)).dslices  # d^2/dt^2 for the stress channel
    grid = u.grid
    R_slices, dR_slices, p_slices = [], [], []
    for s, ds, dds in zip(u.slices, du, du2):
        R_slices.append(anti_divergence(ds + nu * frac_laplacian(s, theta))
                        + tf_square(s, allow_interpolant=True))
        dR_slices.append(anti_divergence(dds + nu * frac_laplacian(ds, theta))
                         + sym_tracefree_product(ds, s, allow_interpolant=True))
        p_slices.append(SpectralField.zeros(grid, "scalar"))
    v = TimeTrack(u.times, u.slices, du)
    p = TimeTrack(u.times, p_slices)
    R = TimeTrack(u.times, R_slices, dR_slices)
    return NSRState(v, p, R, float(theta), float(nu), q=0, T=float(T))


# -- mollification ----------------------------------------------------------

class _Window:
    """Values made per input node, for output nodes visited in increasing
    order: input node j is made once, when the first output node whose
    reach (lo, hi) holds it comes up, and dropped as soon as the reach has
    passed it.  Reaches never move backwards."""

    def __init__(self, reach, make):
        self.reach, self.make = reach, make
        self.kept, self.made = {}, 0

    def at(self, i: int) -> dict:
        """{input node: value} over the reach of output node i."""
        lo, hi = self.reach(i)
        for j in [j for j in self.kept if j < lo]:
            del self.kept[j]
        for j in range(max(self.made, lo), hi + 1):
            self.kept[j] = self.make(j)
        self.made = max(self.made, hi + 1)
        return self.kept


def _kernel(state: NSRState, ell: float) -> TemporalKernel:
    check_padding(state.times, state.T, ell)
    return TemporalKernel(state.times, ell)


def _reads(reach, track: TimeTrack):
    """The reach over which a sweep holds the track's slices: the given
    one, widened to the `fd6_channel` stencils of its nodes where the
    track has no channel."""
    if track.has_channel():
        return reach
    n = len(track)

    def widened(i):
        lo, hi = reach(i)
        return (max(0, min(lo, _stencil_start(n, lo))),
                min(n - 1, max(hi, _stencil_start(n, hi) + 6)))
    return widened


def _smooth(kern: TemporalKernel, fields, i: int) -> SpectralField:
    """Space-time mollification at node i of one track's fields, held as a
    list or as a window's {input node: field}: the temporal sum over row
    i, then the spatial multiplier once (the two commute)."""
    return spatial_mollify(kern.apply_fields(fields, i), kern.ell)


def _stress_node(kern: TemporalKernel, i: int, v_ell: SpectralField, R: dict,
                 vxv: dict) -> SpectralField:
    """R_ls = R_ell + (v_ell x v_ell - (v x v)_ell) at node i, from windows
    of the input R and the products v x v over row i."""
    return _smooth(kern, R, i) + (tf_square(v_ell, allow_interpolant=True) - _smooth(kern, vxv, i))


def _stress_sups(state: NSRState, ell: float) -> tuple:
    """Sup norms of R_ls and of the input R at every node: the first of the
    step's two sweeps.  It reads each slice of v and R once, holds them and
    the products v x v over the temporal kernel's reach, smooths each
    track once per node (`_smooth`) and keeps one sup per node of each."""
    kern = _kernel(state, ell)
    R_sups = []

    def read_R(j):
        R_j = state.R.slices[j]
        R_sups.append(lp_norm(R_j, np.inf))
        return R_j

    rows = kern.reach
    v, R = _Window(rows, lambda j: state.v.slices[j]), _Window(rows, read_R)
    vxv = _Window(rows, lambda j: tf_square(v.kept[j], allow_interpolant=True))
    R_ls_sups = []
    for i in range(len(state.times)):
        v_ell = _smooth(kern, v.at(i), i)
        R_ls_sups.append(lp_norm(_stress_node(kern, i, v_ell, R.at(i), vxv.at(i)), np.inf))
    return np.array(R_ls_sups), np.array(R_sups)


def _mollified_nodes(state: NSRState, ell: float, active):
    """Yield each node's mollified fields (v_ell, dv_ell, p_ell, R_ls,
    dR_ls) in turn, with d/dt R_ls where active[i] holds and None
    elsewhere: mollify's node-by-node sweep, the second of the step's.  It
    reads each input slice at most once and holds the slices, the
    derivative channels (`fd6_channel`'s stencils where the state has
    none) and the products v x v and dv x v only over the temporal
    kernel's reach, smooths each track once per node (`_smooth`) and makes
    R_ls with `_stress_sups`'s arithmetic."""
    kern = _kernel(state, ell)
    rows = kern.reach
    v = _Window(_reads(rows, state.v), lambda j: state.v.slices[j])
    R = _Window(_reads(rows, state.R), lambda j: state.R.slices[j])
    p = _Window(rows, lambda j: state.p.slices[j])
    # each window below reads v's and R's at node i only after they hold row i
    dv = _Window(rows, lambda j: _channel(state.v, j, v.kept))
    vxv = _Window(rows, lambda j: tf_square(v.kept[j], allow_interpolant=True))
    dvxv = _Window(rows, lambda j: sym_tracefree_product(dv.kept[j], v.kept[j],
                                                         allow_interpolant=True))
    dR = _Window(rows, lambda j: _channel(state.R, j, R.kept))
    for i in range(len(state.times)):
        v_ell = _smooth(kern, v.at(i), i)
        R_ls = _stress_node(kern, i, v_ell, R.at(i), vxv.at(i))
        dv_ell = _smooth(kern, dv.at(i), i)
        dR_ls = None
        if active[i]:
            dR_ls = _smooth(kern, dR.at(i), i) + (
                sym_tracefree_product(dv_ell, v_ell, allow_interpolant=True)
                - _smooth(kern, dvxv.at(i), i))
        yield v_ell, dv_ell, _smooth(kern, p.at(i), i), R_ls, dR_ls


def mollify(state: NSRState, ell: float) -> NSRState:
    """Space-time mollification plus the product commutator stress.

    Spatial smoothing is the Fourier multiplier of the periodized bump;
    temporal smoothing is the normalized discrete kernel applied to the
    value and derivative channels alike.  The returned triple
    (v_ell, p_ell, R_ls) has the low-frequency stress R_ls = R_ell + R_m,
    with derivative channels on v and R, so it balances exactly up to the
    mollified input residual.  It collects the node-by-node sweep that
    `step_nodes` streams.
    """
    times = state.times
    v_ell, dv_ell, p_ell, R_ls, dR_ls = (list(track) for track in zip(*_mollified_nodes(
        state, ell, np.ones(times.size, dtype=bool))))
    return NSRState(TimeTrack(times, v_ell, dv_ell), TimeTrack(times, p_ell),
                    TimeTrack(times, R_ls, dR_ls), state.theta, state.nu,
                    state.q, state.T)


# -- temporal cutoff ---------------------------------------------------------

def _switch_eval(intervals: list, ell: float, t: np.ndarray):
    """Value and derivative of the product-of-ramps switch at times t."""
    t = np.asarray(t, dtype=float)
    w = ell / 2.0
    # the switch is 1 - Q for the running product Q = prod_j (1 - p_j)
    # of the intervals' ramp pairs p_j; no interval leaves it zero
    Q, dQ = np.ones_like(t), np.zeros_like(t)
    for (a, b) in intervals:
        xa = (t - (a - ell)) / w
        xb = ((b + ell) - t) / w
        pa, pb = smoothstep(xa), smoothstep(xb)
        dpa = smoothstep_prime(xa) / w
        dpb = -smoothstep_prime(xb) / w
        p = pa * pb
        Q, dQ = Q * (1.0 - p), dQ * (1.0 - p) - Q * (dpa * pb + pa * dpb)
    return 1.0 - Q, 0.0 - dQ


@dataclass
class CutoffProfile:
    """Smooth time switch: 1 on the detected stress support, 0 outside
    its ell-neighborhood, with an analytic derivative channel."""

    values: np.ndarray
    dvalues: np.ndarray

    def support_mask(self) -> np.ndarray:
        return self.values > 0.0


def sup_norms(track: TimeTrack) -> np.ndarray:
    """The sup norm of each slice of the track."""
    return np.array([lp_norm(s, np.inf) for s in track.slices])


def support_mask(sups: np.ndarray) -> np.ndarray:
    """Nodes whose sup norm (one per node, as `sup_norms` gives them)
    exceeds SUPPORT_RTOL of the largest."""
    top = sups.max()
    if top == 0.0:
        return np.zeros(sups.size, dtype=bool)
    return sups > SUPPORT_RTOL * top


def mask_intervals(times: np.ndarray, mask: np.ndarray) -> list:
    """(first, last) time of each run of True nodes in mask."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], mask.astype(int), [0]))))
    return [(float(times[a]), float(times[b - 1])) for a, b in zip(edges[::2], edges[1::2])]


def neighborhood_mask(times: np.ndarray, mask: np.ndarray, eps: float) -> np.ndarray:
    if not mask.any():
        return np.zeros_like(mask)
    ts = times[mask]
    dist = np.min(np.abs(times[:, None] - ts[None, :]), axis=1)
    return dist <= eps * (1.0 + 1e-12) + 1e-15


def temporal_cutoff(times: np.ndarray, sups: np.ndarray, ell: float) -> CutoffProfile:
    """Mollified-indicator switch around the detected stress support, from
    the sup norm of R_ls at each node (`sup_norms`).

    Equal to 1 on the ell/2-neighborhood of the support (in particular on
    the support itself) and supported inside the ell-neighborhood; ramps
    are width-ell/2 smooth steps, one factor per support interval.
    """
    intervals = mask_intervals(times, support_mask(sups))
    return CutoffProfile(*_switch_eval(intervals, float(ell), times))


# -- coefficients -------------------------------------------------------------

BLOCK = 1 << 13   # entries per block of `_coefficient_slice`'s weights


def _coefficient_slice(r11, r12, dr11, dr12, phi: float, dphi: float,
                       a_const: float, eps_next: float):
    """Per-direction coefficient values and d/dt on the grid.

    Returns {k: a_k} and {k: d/dt a_k} as value arrays over the positive
    directions; antipodes share the same coefficient by the even symmetry
    of the weights.  g^2 and d/dt g^2 come from `decompose` at the
    normalized stress, taken block by block of rows, so its tables and
    weights live for one block only.
    """
    scale = np.sqrt(a_const * eps_next)
    inv = 1.0 / (a_const * eps_next)
    a, da = {}, {}
    for k in positive_directions():
        a[k], da[k] = np.empty(r11.shape), np.empty(r11.shape)
    step = max(1, BLOCK // r11[0].size)   # whole rows
    for rows in (slice(i, i + step) for i in range(0, len(r11), step)):
        weights = decompose(r11[rows] * inv, r12[rows] * inv, dr11[rows] * inv, dr12[rows] * inv)
        for k in a:
            g2, dg2 = weights[k]
            g = np.sqrt(g2)
            a[k][rows] = scale * g * phi
            da[k][rows] = scale * (g * dphi + phi * dg2 / (2.0 * g))
    return a, da


# -- perturbations -------------------------------------------------------------

def _wave_slice(k: Direction, wp: WaveParams, t: float, grid: Grid2):
    """Kernel field and samples for one positive direction at time t.  The
    samples of eta^2 and d/dt eta^2, and the mean of eta^2, are taken from
    the kernel's samples: exact while eta^2 fits the grid, which
    `_pstar_slice` guards when it forms the kernel products."""
    f, df = eta(k, wp, t, grid)
    vals, dvals = f.values(grid.n), df.values(grid.n)
    sq, dsq = vals * vals, 2.0 * vals * dvals
    m2 = float(sq.mean())
    sq -= m2
    dsq -= dsq.mean()
    return {"eta": f, "eta_vals": vals, "deta_vals": dvals, "eta2_mean": m2,
            "p_eta2_vals": sq, "dp_eta2_vals": dsq}


def _perturbation_slice(grid: Grid2, wp: WaveParams, a: dict, da: dict, t: float):
    """Assemble (w_p, w_c, w_t) and their d/dt channels for the time node t
    from {k: a_k} and {k: d/dt a_k}, over the directions of a in a's order.

    Multiplication by the single-mode flow/potential is an exact
    coefficient shift, which makes the stream-function identity and both
    solenoidality statements hold mode-wise.  Per positive direction the
    operands P = a eta, dP, perp_grad P and perp_grad dP are real, so the
    antipode's term is the conjugate mirror of the direction's own: each
    term is the real pair `multiply_mode` adds into a half-spectrum
    accumulator.  Two passes over the directions add them, each term in
    direction order: the first the terms that read d/dt a (dw_p, dw_c and
    the carriers of w_t and dw_t, with the transport part below), taking
    each direction's entry out of da as it goes, so that only a is held
    when the second adds w_p, w_c and the stream function.  A direction's
    kernel samples (`_wave_slice`), the only source of mean eta_k^2, live
    only while its terms are added.  Returns the kernels
    {k: (eta_k, mean eta_k^2)} of the directions of a and the
    fields, with the corrector's transport part
    sum_k [a^2 P(eta^2) - (2/mu) `_inv_lap_div_const`(d/dt a^2 P(eta^2), k)]
    ("transport") and the largest energy share a shift drops past the grid
    band.
    """
    n = grid.n
    lam = wp.lam
    half = (n, n // 2 + 1)
    dw_p, dw_c = (np.zeros((2,) + half, dtype=complex) for _ in range(2))
    carrier = np.zeros((4,) + half, dtype=complex)   # w_t and dw_t before projection
    transport = SpectralField.zeros(grid, "scalar")
    kernels, shifts = {}, {}
    clipped = 0.0
    for k in a:
        a_k, da_k = a[k], da.pop(k)
        wav = _wave_slice(k, wp, t, grid)
        kernels[k] = (wav["eta"], wav["eta2_mean"])
        shifts[k] = xi = lattice_vector(k.five_k, lam // 5)
        dP = analyze(grid, da_k * wav.pop("eta_vals") + a_k * wav.pop("deta_vals"))
        clipped = max(clipped, multiply_mode(dw_p, dP, xi, _amp(1j * k.k_perp)),
                      multiply_mode(dw_c, perp_grad(dP), xi, _amp(1.0 / lam)))
        del dP
        # temporal part: antipodal pairing doubles the positive half
        m_f = analyze(grid, a_k * a_k * wav["p_eta2_vals"])
        dm_f = analyze(grid, 2.0 * a_k * da_k * wav["p_eta2_vals"]
                       + a_k * a_k * wav["dp_eta2_vals"])
        del wav, da_k
        for i, f in enumerate((m_f, m_f, dm_f, dm_f)):   # one component at a time
            carrier[i] += _resize(f.coeffs, n)[0] * k.k[i % 2]
        transport = combine([transport, m_f, _inv_lap_div_const(dm_f, k.k)],
                            [1.0, 1.0, -2.0 / wp.mu])
        del m_f, dm_f
    fac, nonzero = complex(2.0 / wp.mu), _band_mask(n, FreqBand.nonzero())
    for c in (carrier[:2], carrier[2:]):   # fac * helmholtz(project(.)) in place
        c *= nonzero
        _leray(c)
        c *= fac
    w_p, w_c = (np.zeros((2,) + half, dtype=complex) for _ in range(2))
    stream = np.zeros((1,) + half, dtype=complex)
    for k, xi in shifts.items():
        P = analyze(grid, a[k] * kernels[k][0].values(n))
        clipped = max(clipped, multiply_mode(w_p, P, xi, _amp(1j * k.k_perp)),
                      multiply_mode(stream, P, xi, _amp(1.0 / lam)),
                      multiply_mode(w_c, perp_grad(P), xi, _amp(1.0 / lam)))
        del P

    def field(coeffs, rank="vector"):
        return SpectralField(grid, rank, coeffs)

    return kernels, {"w_p": field(w_p), "w_c": field(w_c), "w_t": field(carrier[:2]),
                     "dw_p": field(dw_p), "dw_c": field(dw_c), "dw_t": field(carrier[2:]),
                     "stream": field(stream, "scalar"),
                     "transport": transport, "clipped": clipped}


def _amp(amp) -> np.ndarray:
    """A `multiply_mode` amplitude, one per accumulator component."""
    return np.reshape(amp, (-1, 1, 1))


# -- pressure corrector and stress assembly -----------------------------------

def _pstar_slice(grid: Grid2, wp: WaveParams, a: dict, kernels: dict,
                 transport: SpectralField):
    """Pressure corrector absorbing the gradient parts of the oscillation
    terms: the potential products over non-antipodal pairs plus, on the
    diagonal, the kernel-square pieces and the transport sum ("transport"),
    for the coefficients {k: a_k}, over the pairs of directions of a.

    A pair of positive directions (k, k') stands for the four sign
    combinations (+-k, +-k'); on the diagonal only (k, k) and (-k, -k)
    enter, at weight 1/2, because antipodal pairs are skipped.  The
    shifted and projected spectra of a pair are summed before one
    synthesis; the sign combinations shift a real product by conjugate
    vectors, so that sum is Hermitian: its shifts are added block by
    block into a xi_2 >= 0 half plane and synthesized as real.  Each
    kernel eta_k of {k: (eta_k, mean eta_k^2)} is synthesized once; every
    pair product, the diagonal included, is analyzed from the kernels'
    samples on one product grid.  A pair whose a_k a_k' is all-zero is
    skipped and the kernel of a direction whose a_k is all-zero is not
    synthesized, so a node with phi = 0 but dphi != 0 analyzes no pair.
    Returns the corrector and the largest energy share a clipped shift
    dropped.
    """
    n = grid.n
    step = wp.lam // 5
    half_shell = _band_mask(n, FreqBand.at_least(wp.lam_sigma / 2.0))   # `project`'s mask
    dirs = list(a)
    accum = np.zeros((n, n))
    clipped = 0.0
    # one product grid serves every pair: it resolves the widest kernel's
    # square, and raises unless that fits the grid
    widest = max((kernels[k][0] for k in dirs), key=SpectralField.band)
    m = _product_size(widest, widest, False)
    kernel = {k: kernels[k][0].values(m) for k in dirs if np.any(a[k])}
    for i, k in enumerate(dirs):
        for j, kp in enumerate(dirs[i:], i):
            prod = a[k] * a[kp]
            if not np.any(prod):
                continue
            fast = _analysis(kernel[k] * kernel[kp])
            signs = ((1, 1, 0.5), (-1, -1, 0.5)) if j == i else \
                ((1, 1, 1.0), (1, -1, 1.0), (-1, 1, 1.0), (-1, -1, 1.0))
            spec = np.zeros((1, n, n // 2 + 1), dtype=complex)
            for s1, s2, weight in signs:
                shift = (step * (s1 * k.five_k[0] + s2 * kp.five_k[0]),
                         step * (s1 * k.five_k[1] + s2 * kp.five_k[1]))
                clipped = max(clipped, _shift_loss(fast, shift, n))
                _add_shifted(spec, fast, shift, weight)
            spec *= half_shell   # `project`, in place
            prod *= SpectralField(grid, "scalar", spec).values(n)[0]
            accum -= prod
            del prod
    return analyze(grid, accum) + transport, clipped


def assemble_stress(node: tuple, w: SpectralField, dw: SpectralField, pstar: SpectralField,
                    theta: float, nu: float, t_old: SpectralField):
    """(v, dv, p, R, t_new): the new (v, dv, p, R) of a mollified node
    (v_ell, dv_ell, p_ell, R_ls, dR_ls) under the perturbation
    w = w_p + w_c + w_t and its d/dt dw, and t_new = tf_square of the new
    v.  t_old is tf_square(v_ell).

    The forcing is d/dt w + nu (-Lap)^theta w + div(v x w + w x v + w x w)
    + div R_ls; subtracting grad(pstar) and applying the anti-divergence
    gives a stress whose divergence reproduces the forcing exactly, so
    the updated triple balances by construction.  No argument is changed.
    The assembly drops its own references to w, dw and t_old once the
    forcing is made, so a caller that holds none of them (`_step_node`
    pops w and dw from its dict into the call) has them released there.
    """
    v_l, dv_l, p_l, R_ls, _ = node
    v_new = v_l + w
    dv_new = dv_l + dw
    t_new = tf_square(v_new, allow_interpolant=True)
    forcing = (dw + nu * frac_laplacian(w, theta)
               + divergence(t_new - t_old) + divergence(R_ls))
    del w, dw, t_old
    R_new = anti_divergence(forcing - gradient(pstar))
    p_new = p_l - pstar
    return v_new, dv_new, p_new, R_new, t_new


# -- residual verifier ---------------------------------------------------------

def _slice_residual(v: SpectralField, dv: SpectralField, p: SpectralField,
                    R: SpectralField, theta: float, nu: float,
                    square: SpectralField | None = None) -> tuple:
    """L2 norm of one node's residual d/dt v + div(v x v) + grad p
    + nu (-Lap)^theta v - div R (trace-free product and pressure: the
    classical pressure is p - |v|^2/2), and the sum of the terms' L2 norms.
    square is tf_square(v) where the caller has it.  The terms are made,
    measured and added to the sum one at a time, in this order."""
    if square is None:
        square = tf_square(v, allow_interpolant=True)

    def terms():
        yield dv
        yield divergence(square)
        yield gradient(p)
        yield nu * frac_laplacian(v, theta)
        yield -1.0 * divergence(R)

    total = _zero_coeffs("vector", max(f.storage for f in (dv, square, p, v, R)))
    scale = 0
    for term in terms():
        scale += lp_norm(term, 2)
        _accumulate(total, term, 1.0)
    return lp_norm(SpectralField(v.grid, "vector", total), 2), scale


def _residual_report(res_norms, scales, times: np.ndarray, T: float) -> dict:
    """Per-slice residual norms and the relative size
    max ||res||_L2 / (1 + max term scale), over all nodes and over [0, T]."""
    res_norms = np.array(res_norms)
    scales = np.array(scales)
    denom = 1.0 + scales.max()
    window = (times >= -1e-12) & (times <= T + 1e-12)
    return {
        "per_slice_l2": res_norms,
        "scale": float(scales.max()),
        "max_rel": float(res_norms.max() / denom),
        "window_max_rel": float(res_norms[window].max() / denom) if window.any() else 0.0,
        "pressure_note": "trace-free convention; classical pressure is p - |v|^2/2",
    }


def _state_nodes(state: NSRState):
    """Yield each node's (v, dv, p, R) of the state in turn, reading each
    slice of v, p and R, and dv where the state has it, once: d/dt v is the
    track's channel, or `fd6_channel`'s stencil over a window of v."""
    v = _Window(_reads(lambda i: (i, i), state.v), lambda j: state.v.slices[j])
    for i in range(len(state.times)):
        held = v.at(i)
        yield held[i], _channel(state.v, i, held), state.p.slices[i], state.R.slices[i]


def nsr_residual(state: NSRState) -> dict:
    """Forced momentum-balance residual report, from the state alone; d/dt v
    is the track's channel, or `fd6_channel` where it has none."""
    per_node = [_slice_residual(*node, state.theta, state.nu) for node in _state_nodes(state)]
    return _residual_report(*zip(*per_node), state.times, state.T)


# -- one time node ---------------------------------------------------------------

P_REP = 1.5   # Lebesgue exponent of the stress estimates (7.16)


def _step_node(node: tuple, t: float, phi: float, dphi: float, toy: ToyParams,
               peak: bool = False):
    """New (v, dv, p, R) of a mollified node (v_ell, dv_ell, p_ell, R_ls,
    dR_ls) at time t, under the switch value phi and slope dphi, and a
    dict of the node's scalars, among them the mollified triple's own
    residual ("moll_res") there.

    Every node is made by `assemble_stress`.  Where the switch and its
    slope vanish, it is handed the zero w, dw and corrector: v, dv and p
    keep the mollified values, R is anti_divergence(divergence(R_ls)),
    dR_ls is not read and no perturbation size is made.  An active node
    owns the six parts `_perturbation_slice` makes from
    `_coefficient_slice`'s {k: a_k} and {k: d/dt a_k} and sums them once,
    into w = (w_p + w_c) + w_t and dw = (dw_p + dw_c) + dw_t; the stream
    identity reads that w_p + w_c, and the peak node's stress groups read
    w, w_p, dw_p + dw_c and one tf_square(w_p), the corrector group being
    tf_square(w) - tf_square(w_p).  On the plateau (phi >= 1) it gauges
    the oscillation cancellation against samples of R_ls made again.  Each
    field is dropped at its last use, and both sums go to the assembly by
    pop, so it releases them.  The mollified residual reads the
    tf_square(v_ell) that the assembly reads, and the new one the
    assembly's tf_square(v), so each is made once.  A scalar that is not
    finite raises NonFiniteValue.
    """
    v_l, dv_l, p_l, R_ls, dR_ls = node
    theta, nu = toy.theta, toy.nu
    grid = v_l.grid
    rep = {}
    active = phi != 0.0 or dphi != 0.0
    if not active:   # the zero perturbation and corrector
        sums = {name: SpectralField.zeros(grid, "vector") for name in ("w", "dw")}
        pstar = SpectralField.zeros(grid, "scalar")
    else:
        a, da = _coefficient_slice(*R_ls.values(), *dR_ls.values(), phi, dphi,
                                   toy.a_const, toy.eps_next)
        kernels, pert = _perturbation_slice(grid, toy.wp, a, da, t)   # it empties da
        for name in ("w_p", "w_c", "w_t", "dw_p"):
            rep[name] = lp_norm(pert[name], 2)
        # each sum is made once, in the association (p + c) + t
        dw_pc = pert.pop("dw_p") + pert.pop("dw_c")
        pstar, pstar_clipped = _pstar_slice(grid, toy.wp, a, kernels, pert.pop("transport"))
        rep["clipped"] = max(pert.pop("clipped"), pstar_clipped)
        if phi >= 1.0:
            c11, c12 = reconstruct((k, 2.0 * a_k * a_k * kernels[k][1]) for k, a_k in a.items())
            rv = R_ls.values()   # the samples the coefficients were made from
            rep["oscillation_scale"] = float(np.max(np.hypot(rv[0], rv[1])))
            rv[0] -= c11
            rv[1] -= c12
            del c11, c12
            rep["oscillation_c0"] = float(np.max(np.hypot(rv[0], rv[1])))
            del rv
        del a, da, kernels
        w_pc = pert["w_p"] + pert["w_c"]
        rep["stream"] = lp_norm(w_pc - perp_grad(pert.pop("stream")), 2)
        rep["solenoidality"] = max(lp_norm(divergence(w_pc), 2),
                                   lp_norm(divergence(pert["w_t"]), 2))
        sums = {"w": w_pc + pert["w_t"]}
        del w_pc
        if peak:   # stress error groups 7.16a-d, one norm each
            w = sums["w"]
            rep["lin_time"] = lp_norm(anti_divergence(dw_pc), P_REP)
            rep["lin_dissipation"] = lp_norm(
                anti_divergence(nu * frac_laplacian(w, theta))
                + sym_tracefree_product(v_l, w, allow_interpolant=True), P_REP)
            # (w_c + w_t) x w + w_p x (w_c + w_t) = w x w - w_p x w_p
            sq_p = tf_square(pert["w_p"], allow_interpolant=True)
            rep["corrector"] = lp_norm(tf_square(w, allow_interpolant=True) - sq_p, P_REP)
            rep["oscillation"] = lp_norm(anti_divergence(
                divergence(sq_p + R_ls) + pert["dw_t"] - gradient(pstar)), P_REP)
            del w, sq_p
        sums["dw"] = dw_pc + pert.pop("dw_t")
        del pert, dw_pc
    square = tf_square(v_l, allow_interpolant=True)
    rep["moll_res"] = _slice_residual(v_l, dv_l, p_l, R_ls, theta, nu, square)
    v, dv, p, R, square = assemble_stress(node, sums.pop("w"), sums.pop("dw"), pstar,
                                          theta, nu, square)
    del pstar
    if active:
        rep["v_increment"] = lp_norm(v - v_l, 2)
    rep["res"] = _slice_residual(v, dv, p, R, theta, nu, square)
    del square
    # both quadrature norms from one synthesis of R (none for a zero R);
    # `R_sup` reads the sup that synthesis cached
    rep["R_lp"], rep["R_l1"] = _quadrature_norms(R, (P_REP, 1.0))
    rep["R_sup"] = lp_norm(R, np.inf)
    rep["v_mean"] = float(np.max(np.abs(mean(v))))
    bad = [key for key, x in rep.items() if not np.all(np.isfinite(x))]
    if bad:
        raise NonFiniteValue(f"node at t = {t:.6g}: {', '.join(bad)} not finite")
    return (v, dv, p, R), rep


# -- full step -----------------------------------------------------------------

@dataclass
class StepDiagnostics:
    rows: list = dc_field(default_factory=list)
    residual_report: dict = dc_field(default_factory=dict)
    support: dict = dc_field(default_factory=dict)
    identities: dict = dc_field(default_factory=dict)

    def add(self, name: str, ref: str, value: float, predicted: float | None = None):
        margin = (value / predicted) if predicted else None
        self.rows.append({"quantity": name, "ref": ref, "value": float(value),
                          "predicted_scaling": predicted, "margin": margin})


def step_nodes(state: NSRState, toy: ToyParams, emit) -> StepDiagnostics:
    """One full stress-reduction step at desk-scale parameters, node by node.

    A first sweep (`_stress_sups`) mollifies the stress, R_ls, at every
    node and keeps one sup norm of it, and one of the input R, per node:
    the temporal cutoff and the support containments read only those.
    The second (`_mollified_nodes`) mollifies one node at a time, R_ls
    again with the same arithmetic and d/dt R_ls only where the switch or
    its derivative is nonzero, and `_step_node` makes the new slices and
    scalars of that node, given with its time and switch values, the
    mollified residual among them.  Each sweep reads each input slice at
    most once and holds slices only over the temporal kernel's reach, so a
    state read from disk (`read_state`) is never held whole.  Each new
    node goes to emit(i, v, dv, p, R) as soon as it is made and is not
    kept; the returned diagnostics are max reductions over the nodes'
    scalars.  The toy's theta and nu must be the state's: the node
    functions read them from the toy.
    """
    if (toy.theta, toy.nu) != (state.theta, state.nu):
        raise ConfigError(f"toy (theta, nu) = ({toy.theta}, {toy.nu}) differs from the "
                          f"state's ({state.theta}, {state.nu})")
    lam_ts = toy.wp.lam ** theta_star(state.theta)   # raises unless 0 <= theta < 1
    times = state.times

    R_ls_sups, R_sups = _stress_sups(state, toy.ell)
    cut = temporal_cutoff(times, R_ls_sups, toy.ell)
    peak = int(np.argmax(cut.values))
    active = (cut.values != 0.0) | (cut.dvalues != 0.0)
    reports = []
    for i, node in enumerate(_mollified_nodes(state, toy.ell, active)):
        new, rep = _step_node(node, float(times[i]), float(cut.values[i]),
                              float(cut.dvalues[i]), toy, peak=i == peak)
        emit(i, *new)
        reports.append(rep)
        del node, new   # nothing of a node outlives it

    def top(key):
        return max((rep[key] for rep in reports if key in rep), default=0.0)

    def residual(key):   # the report over the nodes' (L2 norm, term scale) pairs
        return _residual_report(*zip(*(rep[key] for rep in reports)), times, state.T)

    res = residual("res")
    # support containments, slice-exact on the grid
    w_support = np.array(["w_p" in rep for rep in reports])
    r_old, r_ls = support_mask(R_sups), support_mask(R_ls_sups)
    r_new = support_mask(np.array([rep["R_sup"] for rep in reports]))
    phi_mask = cut.support_mask()
    diags = StepDiagnostics(residual_report=res, support={
        "w_in_phi": bool(np.all(~w_support | phi_mask)),
        "phi_in_Nell_Rls": bool(np.all(~phi_mask | neighborhood_mask(times, r_ls, toy.ell))),
        "Rls_in_Nell_Rq": bool(np.all(~r_ls | neighborhood_mask(times, r_old, toy.ell))),
        "Rnew_in_N2ell_Rq": bool(np.all(~r_new | neighborhood_mask(times, r_old, 2 * toy.ell))),
    }, identities={
        "stream_identity_l2": top("stream"),
        "solenoidality_l2": top("solenoidality"),
        "oscillation_c0": top("oscillation_c0"),
        "oscillation_scale": top("oscillation_scale"),
        "w_p_l2": top("w_p"),
        "v_new_mean_max": top("v_mean"),
        "mollified_residual_rel": residual("moll_res")["max_rel"],
        "clipped_energy_fraction": top("clipped"),
    })

    s, lam, mu, r, ell = float(toy.wp.sigma), toy.wp.lam, toy.wp.mu, toy.wp.r, toy.ell
    rpow = r ** (2 - 2 / P_REP)
    groups = reports[peak]
    if "lin_time" in groups:
        diags.add("stress_group_lin_time", "7.16a", groups["lin_time"],
                  ell ** -8 * s * mu * rpow)
        diags.add("stress_group_lin_dissipation", "7.16b", groups["lin_dissipation"],
                  ell ** -4 * lam_ts * r ** (1 - 2 / P_REP))
        diags.add("stress_group_corrector", "7.16c", groups["corrector"],
                  ell ** -8 * (r / mu) * rpow)
        diags.add("stress_group_oscillation", "7.16d", groups["oscillation"],
                  ell ** -8 * (1.0 / (lam * s) + s * r) * rpow)
    diags.add("w_p_L_inf_L2", "3.42", top("w_p"),
              np.sqrt(toy.a_const * toy.eps_next) + ell ** -2 / np.sqrt(lam * s))
    diags.add("w_c_plus_w_t_L2", "3.44", top("w_c") + top("w_t"),
              ell ** -4 * (s + 1.0 / mu) * r)
    diags.add("dt_w_p_L2", "3.45", top("dw_p"), ell ** -4 * lam * s * mu * r)
    diags.add("v_increment_L_inf_L2", "2.5", top("v_increment"),
              np.sqrt(toy.a_const * toy.eps_next))
    diags.add("R_new_L_3/2", "7.16", top("R_lp"),
              ell ** -8 * (s * mu + s * r + r / mu + 1.0 / (lam * s)) * rpow
              + ell ** -4 * lam_ts * r ** (1 - 2 / P_REP))
    diags.add("R_new_L1", "2.3b", top("R_l1"))
    diags.add("R_new_C0", "7.17", top("R_sup"))
    diags.add("residual_window_max_rel", "2.1", res["window_max_rel"])
    diags.add("stream_identity", "3.33", top("stream"))
    diags.add("solenoidality", "3.33+", top("solenoidality"))
    diags.add("oscillation_cancel", "3.34", top("oscillation_c0"))
    diags.add("clipped_energy_fraction", "shift", top("clipped"))
    return diags


def iterate_step(state: NSRState, toy: ToyParams):
    """One full stress-reduction step (`step_nodes`), with the new nodes
    collected: returns the new state and the measured diagnostics."""
    nodes = []
    diags = step_nodes(state, toy, lambda i, *node: nodes.append(node))
    times = state.times
    v, dv, p, R = (list(track) for track in zip(*nodes))
    return NSRState(TimeTrack(times, v, dv), TimeTrack(times, p), TimeTrack(times, R),
                    state.theta, state.nu, state.q + 1, state.T), diags
