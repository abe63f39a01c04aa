"""Training-free proxy scores over activation bundles.

Every proxy returns a plain float oriented so that higher is better: diswot
and the KD distances are negated (they measure teacher-student distance, and
the best student minimizes it), while nwot/params/flops are positive as
computed. PROXIES is the one list of proxies: it maps each name, in the
order the CLI offers them, to what the proxy reads, and proxy_value computes
any of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arch import arch_id
from .kernels import Tensor, log_softmax, softmax
from .network import ActivationBundle, count_flops, count_params
from .rng import stream

ROW_L2 = "row_l2"
MATRIX_L2 = "matrix_l2"
_NORMALIZATIONS = (ROW_L2, MATRIX_L2)

FC_WEIGHTS = "fc_weights"
FC_WEIGHT_GRADS = "fc_weight_grads"

DISWOT = "diswot"
NWOT = "nwot"

# Capacity proxies: (descriptor, space) -> int count.
COST_PROXIES = {"params": count_params, "flops": count_flops}

# Ridge added to the nwot kernel's diagonal.
_NWOT_EPS = 1e-6

# Stream key for the fixed FitNets feature projection; spells "FitS".
_FITNETS_ALIGN_SEED = 0x46697453


def gradcam_maps(bundle: ActivationBundle, weight_source: str = FC_WEIGHTS) -> Tensor:
    """Class-weighted batch-mean activation maps, one flattened H*W row per class.

    Row n is sum_c w[n, c] * mean_over_batch(pre_gap_map[:, c]) flattened,
    with w either the classifier weight or its cross-entropy gradient.
    """
    if weight_source == FC_WEIGHTS:
        w = bundle.fc_weight
    elif weight_source == FC_WEIGHT_GRADS:
        w = bundle.fc_weight_grad
    else:
        raise ValueError(f"unknown weight source {weight_source!r}")
    _, c, h, width = bundle.pre_gap_map.shape
    if w.shape[1] != c:
        raise ValueError(f"weight has {w.shape[1]} columns but the map has {c} channels")
    mean_map = bundle.pre_gap_map.mean(axis=0).reshape(c, h * width)
    return w @ mean_map


def _row_l2_normalize(rows: Tensor) -> Tensor:
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return np.divide(rows, norms, out=np.zeros_like(rows), where=norms > 0)


def similarity_matrix(rows: Tensor, normalization: str = ROW_L2) -> Tensor:
    """Normalized Gram matrix of the flattened rows.

    row_l2 rescales each row of the Gram matrix to unit L2 norm (zero rows
    stay zero); matrix_l2 divides the whole matrix by its Frobenius norm.
    Both cancel any positive scaling of the input rows.
    """
    if normalization not in _NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}")
    flat = np.asarray(rows, dtype=np.float64).reshape(rows.shape[0], -1)
    gram = flat @ flat.T
    if normalization == ROW_L2:
        gram = _row_l2_normalize(gram)
    else:
        norm = np.linalg.norm(gram)
        if norm > 0:
            gram = gram / norm
    return gram


def matrix_mean_sq_diff(a: Tensor, b: Tensor) -> float:
    """Squared Frobenius distance divided by the entry count (1/n^2 for n x n)."""
    if a.shape != b.shape:
        raise ValueError(f"matrix shapes differ: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def gram_distance(teacher: Tensor, student: Tensor, normalization: str = ROW_L2) -> float:
    """Distance between the normalized Gram matrices of two row sets with one row count.

    Each row is flattened, and row lengths may differ between the two: the
    Gram matrices are n x n either way. diswot's semantic term compares the
    class rows of two gradcam_maps results; its relation term, which is also
    the sp distiller, compares the per-sample rows of two feature tensors.
    """
    if teacher.shape[0] != student.shape[0]:
        raise ValueError(f"row counts differ: {teacher.shape[0]} vs {student.shape[0]}")
    g_t = similarity_matrix(teacher, normalization)
    g_s = similarity_matrix(student, normalization)
    return matrix_mean_sq_diff(g_t, g_s)


def diswot_score_from_bundles(
    teacher: ActivationBundle,
    student: ActivationBundle,
    use_semantic: bool = True,
    use_relation: bool = True,
    weight_source: str = FC_WEIGHTS,
    normalization: str = ROW_L2,
) -> float:
    """Negated sum of the semantic and relation distances; higher is better."""
    if not (use_semantic or use_relation):
        raise ValueError("at least one of use_semantic/use_relation must be on")
    total = 0.0
    if use_semantic:
        t_maps = gradcam_maps(teacher, weight_source)
        s_maps = gradcam_maps(student, weight_source)
        total += gram_distance(t_maps, s_maps, normalization)
    if use_relation:
        total += gram_distance(teacher.pre_gap_map, student.pre_gap_map, normalization)
    return -total


def nwot_from_codes(kernel: np.ndarray) -> float:
    """Log-determinant of nwot's sign-agreement kernel K_H, as relu_codes returns it.

    kernel is the symmetric (B, B) int64 matrix whose entry (i, j) counts the
    ReLU units where samples i and j are both active or both inactive; its
    diagonal is the network's ReLU unit count. It is exact before the ridge:
    _NWOT_EPS regularizes rank-deficient kernels, such as those of two samples
    with one sign pattern, and slogdet takes the log-determinant.
    """
    b = kernel.shape[0]
    if b < 2:
        raise ValueError("nwot needs a batch of at least 2 samples")
    _, logdet = np.linalg.slogdet(kernel + _NWOT_EPS * np.eye(b))
    return float(logdet)


def _kl_rows(p: Tensor, logp: Tensor, logq: Tensor) -> Tensor:
    """Per-row KL divergence given probabilities and both log terms."""
    terms = np.where(p > 0, p * (logp - logq), 0.0)
    return terms.sum(axis=1)


def _fitnets_projection(c_student: int, c_teacher: int) -> Tensor:
    """Fixed random [Ct, Cs] map aligning student features to teacher width.

    Keyed only by the two widths, so the proxy stays a pure function of the
    bundles. Scaled by 1/sqrt(Cs) to roughly preserve feature magnitude.
    """
    g = stream(_FITNETS_ALIGN_SEED, (c_student << 20) | c_teacher)
    return g.standard_normal((c_teacher, c_student)) / np.sqrt(c_student)


def _kd_kl(t: ActivationBundle, s: ActivationBundle, rho: float) -> float:
    zt = t.logits / rho
    zs = s.logits / rho
    p = softmax(zt, axis=1)
    return float(_kl_rows(p, log_softmax(zt, axis=1), log_softmax(zs, axis=1)).mean())


def _fitnets(t: ActivationBundle, s: ActivationBundle, rho: float) -> float:
    ft = t.penultimate_features
    fs = s.penultimate_features
    if fs.shape[1] != ft.shape[1]:
        fs = fs @ _fitnets_projection(fs.shape[1], ft.shape[1]).T
    return float(np.mean((ft - fs) ** 2))


def _check_spatial(t: ActivationBundle, s: ActivationBundle, maps: str) -> None:
    if t.pre_gap_map.shape[2:] != s.pre_gap_map.shape[2:]:
        raise ValueError(f"{maps} need equal spatial dims, got {t.pre_gap_map.shape[2:]}"
                         f" vs {s.pre_gap_map.shape[2:]}")


def _attention_rows(pre_gap: Tensor) -> Tensor:
    att = (pre_gap**2).sum(axis=1)
    return _row_l2_normalize(att.reshape(att.shape[0], -1))


def _at(t: ActivationBundle, s: ActivationBundle, rho: float) -> float:
    _check_spatial(t, s, "attention maps")
    diff = _attention_rows(t.pre_gap_map) - _attention_rows(s.pre_gap_map)
    return float((diff**2).sum(axis=1).mean())


def _sp(t: ActivationBundle, s: ActivationBundle, rho: float) -> float:
    return gram_distance(t.pre_gap_map, s.pre_gap_map)


def _correlation_matrix(features: Tensor) -> Tensor:
    centered = features - features.mean(axis=1, keepdims=True)
    unit = _row_l2_normalize(centered)
    return unit @ unit.T


def _cc(t: ActivationBundle, s: ActivationBundle, rho: float) -> float:
    rt = _correlation_matrix(t.penultimate_features)
    rs = _correlation_matrix(s.penultimate_features)
    return matrix_mean_sq_diff(rt, rs)


def _pairwise_distances(features: Tensor) -> Tensor:
    sq = (features**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (features @ features.T)
    return np.sqrt(np.maximum(d2, 0.0))


def _rkd(t: ActivationBundle, s: ActivationBundle, rho: float) -> float:
    dt = _pairwise_distances(t.penultimate_features)
    ds = _pairwise_distances(s.penultimate_features)
    return matrix_mean_sq_diff(dt, ds)


def _nst(t: ActivationBundle, s: ActivationBundle, rho: float) -> float:
    _check_spatial(t, s, "channel maps")
    b = t.pre_gap_map.shape[0]
    total = 0.0
    for i in range(b):
        mt = _row_l2_normalize(t.pre_gap_map[i].reshape(t.pre_gap_map.shape[1], -1))
        ms = _row_l2_normalize(s.pre_gap_map[i].reshape(s.pre_gap_map.shape[1], -1))
        total += float((mt @ mt.T).mean() + (ms @ ms.T).mean() - 2.0 * (mt @ ms.T).mean())
    return total / b


def _pkt_probabilities(features: Tensor) -> Tensor:
    cos = _row_l2_normalize(features) @ _row_l2_normalize(features).T
    k = (cos + 1.0) / 2.0
    return k / k.sum(axis=1, keepdims=True)


def _pkt(t: ActivationBundle, s: ActivationBundle, rho: float) -> float:
    pt = _pkt_probabilities(t.penultimate_features)
    ps = _pkt_probabilities(s.penultimate_features)
    logp = np.log(np.maximum(pt, 1e-300))
    logq = np.log(np.maximum(ps, 1e-300))
    return float(_kl_rows(pt, logp, logq).mean())


# Each distance takes (teacher, student, temperature); only kd_kl reads the
# temperature.
_KD_DISTANCES = {
    "kd_kl": _kd_kl,
    "fitnets": _fitnets,
    "at": _at,
    "sp": _sp,
    "cc": _cc,
    "rkd": _rkd,
    "nst": _nst,
    "pkt": _pkt,
}
KD_KINDS = tuple(_KD_DISTANCES)


def kd_distance(
    kind: str,
    teacher: ActivationBundle,
    student: ActivationBundle,
    temperature: float = 1.0,
) -> float:
    """Distillation-distance proxy of one of KD_KINDS, negated; higher is better.

    temperature only affects kd_kl.
    """
    if kind not in _KD_DISTANCES:
        raise ValueError(f"unknown kd distance kind {kind!r}")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if teacher.penultimate_features.shape[0] != student.penultimate_features.shape[0]:
        raise ValueError("teacher and student bundles come from different batch sizes")
    return -_KD_DISTANCES[kind](teacher, student, temperature)


# What a proxy reads: the descriptor's cost, the student's ReLU agreement
# kernel, or the teacher and student activation bundles.
COST = "cost"
KERNEL = "kernel"
BUNDLES = "bundles"

PROXIES = {
    DISWOT: BUNDLES,
    NWOT: KERNEL,
    **dict.fromkeys(COST_PROXIES, COST),
    **dict.fromkeys(_KD_DISTANCES, BUNDLES),
}


@dataclass(frozen=True)
class ProxyOptions:
    """Settings of the bundle proxies: the first four are diswot's, temperature is kd_kl's."""

    use_semantic: bool = True
    use_relation: bool = True
    weight_source: str = FC_WEIGHTS
    normalization: str = ROW_L2
    temperature: float = 1.0


def proxy_value(name: str, desc, space=None, kernel: np.ndarray | None = None,
                teacher: ActivationBundle | None = None, student: ActivationBundle | None = None,
                options: ProxyOptions = ProxyOptions()) -> float:
    """The value of proxy name for the student desc, from the inputs PROXIES[name] names.

    A cost proxy reads space, nwot the student's agreement kernel (see
    nwot_from_codes), and the bundle proxies teacher and student; the other
    inputs may be None. A non-finite value raises ValueError naming the
    proxy and the architecture.
    """
    if name in COST_PROXIES:
        value = float(COST_PROXIES[name](desc, space))
    elif name == NWOT:
        value = nwot_from_codes(kernel)
    elif name == DISWOT:
        value = diswot_score_from_bundles(teacher, student, options.use_semantic, options.use_relation,
                                          options.weight_source, options.normalization)
    else:
        value = kd_distance(name, teacher, student, options.temperature)
    if not math.isfinite(value):
        raise ValueError(f"proxy {name} gave {value} for architecture {arch_id(desc)}")
    return value
