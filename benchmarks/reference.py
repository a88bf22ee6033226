"""Correctness references for the benchmark, computed without dotphase.

Everything here is re-derived from the protocol's documented physics:

* ideal readout distribution: the closed-form kernel
  |sin(pi 2^m delta) / (2^m sin(pi delta))|^2 (Cleve, Ekert, Macchiavello
  and Mosca, Proc. R. Soc. A 454, 339, 1998);
* pulse-literal readout distribution: a small dense simulation of the
  protocol (m <= DENSE_MAX_M) and, for larger registers, the semiclassical
  measure-as-you-go tree (Griffiths and Niu, PRL 76, 3228, 1996);
* pulse fits, clock verdicts and feasibility figures: the formulas in the
  package documentation.

``check(config, report)`` returns a list of problems; an empty list means
the report is correct.
"""
from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
PROB_TOL = 1e-9          # distributions and success probabilities
FIT_TOL = 1e-9           # residuals of reachable pulse-fit targets
REL_TOL = 1e-12          # recomputed closed-form scalars
SHOT_SIGMAS = 5.0
DENSE_MAX_M = 8          # largest register the dense reference simulates
PHI_GRID = 4096          # laser-phase grid for the best achievable fit

H_IDEAL = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
X_GATE = np.array([[0, 1], [1, 0]], dtype=np.complex128)


# ---------------------------------------------------------------- pulses

def pulse_unitary(theta: float, phase: float) -> np.ndarray:
    """Resonant pulse: |g> -> -i e^{-i phase} sin(theta)|g> + cos(theta)|e>,
    |e> -> cos(theta)|g> - i e^{i phase} sin(theta)|e>."""
    s, c = math.sin(theta), math.cos(theta)
    return np.array(
        [[-1j * np.exp(-1j * phase) * s, c], [c, -1j * np.exp(1j * phase) * s]],
        dtype=np.complex128,
    )


H_PULSE = pulse_unitary(math.pi / 4, math.pi / 2)


def phase_gate(x: float, mode: str) -> np.ndarray:
    """Phase gate: diag(1, e^{ix}) ideal; diag(-e^{-ix}, e^{ix}) as the
    prescribed pulse (theta = pi/2, laser phase x + pi/2) realises it."""
    if mode == "ideal":
        return np.diag([1.0, np.exp(1j * x)]).astype(np.complex128)
    return np.diag([-np.exp(-1j * x), np.exp(1j * x)])


def kick_gate(power: int, phi: float, mode: str) -> np.ndarray:
    """phase_gate(phi, mode) ** power, from exact angles (power is 2^k, so
    power * phi is exact in floating point)."""
    x = power * phi
    if mode == "ideal":
        return np.diag([1.0, np.exp(1j * x)]).astype(np.complex128)
    sign = -1.0 if power % 2 else 1.0
    return np.diag([sign * np.exp(-1j * x), np.exp(1j * x)])


def hadamard(mode: str) -> np.ndarray:
    return H_IDEAL if mode == "ideal" else H_PULSE


def distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance minimised over a global phase, evaluated at the
    optimal phase so it keeps its digits near zero."""
    tr = np.trace(a.conj().T @ b)
    if abs(tr) < 1e-300:
        return math.sqrt(2.0 * a.shape[0])
    return float(np.linalg.norm(a - (np.conj(tr) / abs(tr)) * b))


def best_fit_distance(target: np.ndarray) -> float:
    """Smallest single-pulse distance to ``target`` over a laser-phase grid,
    with the Rabi angle optimised in closed form at each grid phase.

    |tr(U^dag T)| = |sin(theta) A(phase) + cos(theta) B|; its maximum over
    theta is the square root of the larger eigenvalue of the 2x2 Gram form.
    The grid makes this an upper bound on the true optimum distance.
    """
    ph = np.arange(PHI_GRID) * (TWO_PI / PHI_GRID)
    a = 1j * (np.exp(1j * ph) * target[0, 0] + np.exp(-1j * ph) * target[1, 1])
    b = target[0, 1] + target[1, 0]
    aa, bb = np.abs(a) ** 2, abs(b) ** 2
    ab = np.real(a * np.conj(b))
    lam = 0.5 * (aa + bb + np.sqrt((aa - bb) ** 2 + 4 * ab ** 2))
    best = float(np.sqrt(lam.max()))
    return math.sqrt(max(0.0, 4.0 - 2.0 * best))


# ----------------------------------------------------- readout distributions

def kernel_probs(m: int, phi: float) -> np.ndarray:
    """Ideal readout distribution, indexed by the readout integer j."""
    n = 2 ** m
    x = n * (phi / TWO_PI)
    num = math.sin(math.pi * (x % 1.0)) ** 2
    den = (n * np.sin(np.pi * (x - np.arange(n)) / n)) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        p = num / den
    p[den == 0.0] = 1.0
    return p


def _apply_1q(psi: np.ndarray, q: int, gate: np.ndarray) -> np.ndarray:
    n = psi.size
    v = psi.reshape(2 ** (q - 1), 2, n // 2 ** q)
    return np.einsum("ab,ibj->iaj", gate, v).reshape(n)


def _bit_slice(nq: int, fixed: dict) -> tuple:
    idx = [slice(None)] * nq
    for q, bit in fixed.items():
        idx[q - 1] = bit
    return tuple(idx)


def _apply_cnot(psi: np.ndarray, nq: int, c: int, t: int) -> np.ndarray:
    a = psi.reshape((2,) * nq).copy()
    sel0, sel1 = _bit_slice(nq, {c: 1, t: 0}), _bit_slice(nq, {c: 1, t: 1})
    a[sel0], a[sel1] = a[sel1].copy(), a[sel0].copy()
    return a.reshape(-1)


def _apply_cphase(psi: np.ndarray, nq: int, c: int, t: int, x: float) -> np.ndarray:
    a = psi.reshape((2,) * nq).copy()
    a[_bit_slice(nq, {c: 1, t: 1})] *= np.exp(1j * x)
    return a.reshape(-1)


def dense_probs(m: int, phi: float, mode: str, include_target: bool) -> np.ndarray:
    """Readout distribution by literal dense simulation of the protocol.

    Qubit 1 is the most significant basis bit; with ``include_target`` the
    target molecule is an explicit last qubit held in |1> and the kicks are
    controlled phases onto it.
    """
    nq = m + 1 if include_target else m
    psi = np.zeros(2 ** nq, dtype=np.complex128)
    psi[0] = 1.0
    h = hadamard(mode)
    if include_target:
        psi = _apply_1q(psi, nq, X_GATE)
    for q in range(1, m + 1):
        psi = _apply_1q(psi, q, h)
    for j in range(1, m + 1):
        power = 2 ** (m - j)
        if include_target:
            psi = _apply_cphase(psi, nq, j, nq, power * phi)
        else:
            psi = _apply_1q(psi, j, kick_gate(power, phi, mode))
    psi = _apply_1q(psi, 1, h)
    for r in range(2, m + 1):
        for s in range(1, r):
            theta = math.pi / 2 ** (r - s + 1)
            psi = _apply_1q(psi, s, phase_gate(-theta, mode))
            psi = _apply_cnot(psi, nq, s, r)
            psi = _apply_1q(psi, r, phase_gate(theta, mode))
            psi = _apply_cnot(psi, nq, s, r)
            psi = _apply_1q(psi, r, phase_gate(-theta, mode))
        psi = _apply_1q(psi, r, h)
    probs = np.abs(psi.reshape(2 ** m, -1)) ** 2
    register = probs.sum(axis=1).reshape((2,) * m)
    # readout integer j has molecule 1 as its least significant bit
    return register.transpose(tuple(range(m - 1, -1, -1))).reshape(-1)


def tree_probs(m: int, phi: float, mode: str, include_target: bool) -> np.ndarray:
    """Readout distribution by measuring each molecule right after its
    inverse-QFT Hadamard.

    Every gate that touches molecule s after its Hadamard is diagonal in
    its basis, so measuring it there changes no statistic; each later
    controlled-phase sequence then acts on molecule r as the diagonal
    P(-theta) X^b P(theta) X^b chosen by the measured bit b of s.
    """
    h = hadamard(mode)
    x = X_GATE
    probs = np.ones(1)
    for r in range(1, m + 1):
        power = 2 ** (m - r)
        kick = kick_gate(power, phi, "ideal" if include_target else mode)
        vec = kick @ h[:, 0]
        a0 = np.array([vec[0]])
        a1 = np.array([vec[1]])
        for s in range(1, r):
            theta = math.pi / 2 ** (r - s + 1)
            d = [
                np.diag(phase_gate(-theta, mode) @ phase_gate(theta, mode)),
                np.diag(phase_gate(-theta, mode) @ x @ phase_gate(theta, mode) @ x),
            ]
            a0 = np.concatenate([a0 * d[0][0], a0 * d[1][0]])
            a1 = np.concatenate([a1 * d[0][1], a1 * d[1][1]])
        p0 = np.abs(h[0, 0] * a0 + h[0, 1] * a1) ** 2
        p1 = np.abs(h[1, 0] * a0 + h[1, 1] * a1) ** 2
        probs = np.concatenate([probs * p0, probs * p1])
    return probs


def readout_probs(m: int, phi: float, mode: str, include_target: bool) -> np.ndarray:
    if mode == "ideal":
        return kernel_probs(m, phi)
    if m <= DENSE_MAX_M:
        return dense_probs(m, phi, mode, include_target)
    return tree_probs(m, phi, mode, include_target)


def window_success(probs: np.ndarray, m: int, n: int, phi: float) -> float:
    """Mass of readouts within circular distance 1/2^n of phi / 2pi."""
    frac = (phi / TWO_PI) % 1.0
    d = np.abs(np.arange(2 ** m) / 2 ** m - frac) % 1.0
    d = np.minimum(d, 1.0 - d)
    return float(probs[d < 0.5 ** n].sum())


# ------------------------------------------------------------------ checks

def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


def _cdist(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def check_estimate(cfg: dict, res: dict) -> list[str]:
    m, phi = cfg["m"], cfg["phase_rad"]
    probs = readout_probs(m, phi, cfg["mode"], cfg["include_target"])
    out = []
    if res.get("m") != m or res.get("true_phase_rad") != phi:
        out.append("m or true phase not echoed")
    if "distribution" in res:
        dist = np.asarray(res["distribution"], dtype=float)
        if dist.shape != probs.shape:
            out.append(f"distribution has {dist.size} entries, expected {probs.size}")
        else:
            if dist.min() < 0.0 or not abs(dist.sum() - 1.0) <= PROB_TOL:
                out.append("distribution is negative or does not sum to 1")
            err = float(np.max(np.abs(dist - probs)))
            if not err <= PROB_TOL:
                out.append(f"distribution deviates from reference by {err:.3e}")
    if cfg["shots"] == 0:
        j = res["readout_integer"]
        if not 0 <= j < 2 ** m:
            return out + [f"readout integer {j} out of range"]
        if not probs[j] >= probs.max() - PROB_TOL:
            out.append(f"readout {j} is not a most likely outcome")
        if not abs(res["max_probability"] - probs[j]) <= PROB_TOL:
            out.append(
                f"max_probability {res['max_probability']!r} != reference {probs[j]!r}"
            )
        phi_hat = TWO_PI * j / 2 ** m
        if res["readout_bits"] != [int(b) for b in format(j, f"0{m}b")]:
            out.append("readout bits do not spell the readout integer")
        if not (_close(res["estimated_phase_rad"], phi_hat)
                and _close(res["eta_percent"], phi_hat / phi * 100.0)
                and _close(res["abs_error_turns"], _cdist(phi_hat / TWO_PI, phi / TWO_PI))):
            out.append("estimate fields inconsistent with the readout integer")
        return out
    shots = cfg["shots"]
    counts = {int(k): v for k, v in res["counts"].items()}
    if res["shots"] != shots or sum(counts.values()) != shots:
        out.append(f"counts sum to {sum(counts.values())}, expected {shots}")
    if len(res["estimates_rad"]) != shots or len(res["eta_percent"]) != shots:
        out.append("per-shot lists have the wrong length")
    seen: dict = {}
    for est in res["estimates_rad"]:
        j = round(est / TWO_PI * 2 ** m)
        seen[j] = seen.get(j, 0) + 1
        if not _close(est, TWO_PI * j / 2 ** m):
            out.append(f"estimate {est!r} is not on the 2^-m grid")
            break
    if seen != counts:
        out.append("counts do not tally the per-shot estimates")
    if any(not _close(e, est / phi * 100.0)
           for e, est in zip(res["eta_percent"], res["estimates_rad"])):
        out.append("per-shot eta_percent inconsistent with estimates")
    if counts and min(counts) >= 0 and max(counts) < 2 ** m:
        mode_j = max(counts, key=lambda k: (counts[k], -k))
        p = float(probs[mode_j])
        sigma = math.sqrt(shots * p * (1.0 - p))
        if not abs(counts[mode_j] - shots * p) <= SHOT_SIGMAS * sigma + 1.0:
            out.append(
                f"modal count {counts[mode_j]} of outcome {mode_j} is more than "
                f"{SHOT_SIGMAS:g} sigma from {shots * p:.1f}"
            )
    else:
        out.append("count keys outside 0 .. 2^m - 1")
    return out


def check_sweep(cfg: dict, res: dict) -> list[str]:
    n, mode = cfg["n"], cfg["mode"]
    rows = res["rows"]
    expected = len(cfg["m_values"]) * cfg["random_phases"]
    if len(rows) != expected:
        return [f"sweep has {len(rows)} rows, expected {expected}"]
    out = []
    for i, row in enumerate(rows):
        m, phi = cfg["m_values"][i // cfg["random_phases"]], row["phi_rad"]
        if row["m"] != m or row["n"] != n or not 0.0 < phi <= TWO_PI:
            out.append(f"row {i} has the wrong m, n or phase")
            continue
        bound = 1.0 - 1.0 / (2 ** (m - n + 1) - 4)
        if not _close(row["bound"], bound):
            out.append(f"row {i} bound {row['bound']!r} != {bound!r}")
        ref = window_success(readout_probs(m, phi, mode, False), m, n, phi)
        got = row["empirical_success"]
        if not abs(got - ref) <= PROB_TOL:
            out.append(f"row {i} success {got!r} != reference {ref!r}")
        if mode == "ideal" and not got >= bound - PROB_TOL:
            out.append(f"row {i} ideal success {got!r} below the bound {bound!r}")
    return out


def preset_target(preset: str) -> tuple[np.ndarray, np.ndarray | None]:
    """(target, prescribed pulse gate or None) for a pulse-fit preset."""
    name, _, arg = preset.partition(":")
    if name == "hadamard":
        return H_IDEAL, H_PULSE
    if name == "pulse-hadamard":
        return H_PULSE, None
    x = float(arg)
    prescribed = pulse_unitary(math.pi / 2, x + math.pi / 2)
    if name == "phase":
        return phase_gate(x, "ideal"), prescribed
    return prescribed, None


def matrix_target(values: list) -> np.ndarray:
    return np.array(
        [complex(values[k], values[k + 1]) for k in range(0, 8, 2)]
    ).reshape(2, 2)


def check_pulse_fit(cfg: dict, res: dict, warnings: list, kind: str) -> list[str]:
    if cfg["preset"] is not None:
        target, prescribed = preset_target(cfg["preset"])
    else:
        target, prescribed = matrix_target(cfg["matrix"]), None
    reachable = kind != "haar"
    out = []
    got = np.array([complex(re, im) for re, im in res["target"]]).reshape(2, 2)
    if not np.max(np.abs(got - target)) <= REL_TOL:
        out.append("reported target differs from the requested one")
    fit = pulse_unitary(res["fit"]["rabi_angle_rad"], res["fit"]["phase_rad"])
    residual = res["residual"]
    if not abs(distance(fit, target) - residual) <= FIT_TOL:
        out.append(f"residual {residual!r} is not the distance of the reported fit")
    if reachable and not residual <= FIT_TOL:
        out.append(f"reachable target fitted with residual {residual!r}")
    if not residual <= best_fit_distance(target) + FIT_TOL:
        out.append(f"residual {residual!r} worse than the grid optimum")
    if prescribed is not None:
        gap = distance(prescribed, target)
        if not abs(res.get("prescribed_pulse_gap", math.nan) - gap) <= FIT_TOL:
            out.append(f"prescribed gap {res.get('prescribed_pulse_gap')!r} != {gap!r}")
        if cfg["preset"] == "hadamard" and not abs(gap - 2.0) <= FIT_TOL:
            out.append(f"hadamard prescribed gap {gap!r} is not 2.0")
        if len(warnings) != (1 if gap > 1e-9 else 0):
            out.append("prescribed-gap warning missing or spurious")
    elif "prescribed_pulse_gap" in res:
        out.append("gap reported for a target without a prescribed pulse")
    return out


def check_clock(cfg: dict, res: dict) -> list[str]:
    rate = cfg["varpi"] * cfg["n0"] ** 2 * cfg["n_vac"] * cfg["r63"] * cfg["e_field"]
    if cfg["varphi"] is not None:
        t = (TWO_PI * cfg["varphi"] + math.pi / 2) * 2.0 / rate
    else:
        t = cfg["duration_s"]
    o, h, t_ideal, eta = (cfg["total_scales"], cfg["elapsed_scales"],
                          cfg["t_ideal_s"], cfg["eta_percent"])
    t_total = o * t / h
    eta_prime = t_total / t_ideal * 100.0
    if t_total == t_ideal:
        verdict = "accurate"
    elif (eta_prime <= eta if cfg["comparison_mode"] == "literal"
          else abs(eta_prime - 100.0) <= abs(eta - 100.0)):
        verdict = "accurate"
    elif t_total < t_ideal:
        verdict = "increase-frequency"
    else:
        verdict = "decrease-frequency"
    out = []
    if res["verdict"] != verdict or res["comparison_mode"] != cfg["comparison_mode"]:
        out.append(f"verdict {res['verdict']!r} != {verdict!r}")
    for key, want in (("T", t), ("T_total", t_total), ("eta_prime_percent", eta_prime),
                      ("length_estimate_m", cfg["v"] * t)):
        if not _close(res[key], want):
            out.append(f"{key} {res[key]!r} != {want!r}")
    if (res["O"], res["h"], res["T_ideal"], res["eta_percent"]) != (o, h, t_ideal, eta):
        out.append("clock inputs not echoed")
    return out


def max_qubits(coherence: float, tau: float) -> int:
    """Largest n with n(n-1)/2 * tau <= coherence."""
    n = 1
    while (n + 1) * n / 2 * tau <= coherence:
        n += 1
    return n


def check_feasibility(cfg: dict, res: dict, warnings: list) -> list[str]:
    t, d = cfg["tunneling_t_mev"], cfg["level_split_delta_mev"]
    cap = max_qubits(cfg["coherence_time_s"], cfg["two_gate_time_s"])
    n = cfg["n_qubits"] if cfg["n_qubits"] is not None else cap
    protocol = n * (n - 1) / 2 * cfg["two_gate_time_s"]
    out = []
    for key, got, want in (
        ("gamma", res["gamma"], t * t / (d * d + t * t)),
        ("omega_eff", res["omega_eff"]["value"],
         cfg["omega_c_mhz"] * (cfg["omega2_mev"] / cfg["delta_mev"])),
        ("protocol_time_s", res["protocol_time_s"], protocol),
    ):
        if not _close(got, want):
            out.append(f"{key} {got!r} != {want!r}")
    if res["omega_eff"]["unit"] != "MHz":
        out.append("omega_eff unit is not MHz")
    if res["max_qubits"] != cap or res["requested_qubits"] != n:
        out.append(f"max_qubits {res['max_qubits']} != {cap} or requested != {n}")
    if len(warnings) != 1 + (protocol > cfg["coherence_time_s"]):
        out.append("coherence-budget warning missing or spurious")
    return out


def check(cfg: dict, report: dict, kind: str = "") -> list[str]:
    """Problems with ``report`` for the call made with config ``cfg``;
    ``kind`` is the workload's label for the call (``haar`` marks a
    pulse-fit target no single pulse reaches)."""
    echoed = report.get("config", {})
    if any(echoed.get(k) != v for k, v in cfg.items()):
        return ["report does not echo the config it was given"]
    res, warnings = report["results"], report["warnings"]
    command = cfg["command"]
    if command == "estimate":
        return check_estimate(echoed, res)
    if command == "sweep":
        return check_sweep(echoed, res)
    if command == "pulse-fit":
        return check_pulse_fit(echoed, res, warnings, kind)
    if command == "calibrate-clock":
        return check_clock(echoed, res)
    return check_feasibility(echoed, res, warnings)
