"""Ordered-genotype state space and per-individual likelihood factors.

The latent genotype of each pedigree member takes four states: non-carrier,
heterozygous carrier whose mutated allele came from the father, heterozygous
carrier whose mutated allele came from the mother, and homozygous carrier.
Disease risk depends on the transmitting parent: the paternal-origin
heterozygote carries the log hazard ratio ``beta`` while maternal-origin
heterozygotes and homozygotes follow the baseline hazard. Non-carriers never
develop the disease.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Genotype",
    "GENOTYPE_LABELS",
    "LABEL_TO_GENOTYPE",
    "N_STATES",
    "DEFAULT_EPSILON",
    "DEFAULT_ETA",
    "ModelParams",
    "founder_prior",
    "TRANSMIT_PROBABILITY",
    "TRANSMISSION",
    "penetrance_factor",
    "test_factor",
    "evidence_factor",
    "FixedEvidence",
    "evidence_matrix",
    "origin_weights",
]

N_STATES = 4

# Magnitudes consistent with clinical-grade genetic tests.
DEFAULT_EPSILON = 0.01
DEFAULT_ETA = 0.001


class Genotype(enum.IntEnum):
    NON_CARRIER = 0
    HET_PATERNAL = 1  # mutated allele inherited from the father
    HET_MATERNAL = 2  # mutated allele inherited from the mother
    HOMOZYGOUS = 3


GENOTYPE_LABELS = {
    Genotype.NON_CARRIER: "0",
    Genotype.HET_PATERNAL: "1p",
    Genotype.HET_MATERNAL: "1m",
    Genotype.HOMOZYGOUS: "2",
}
LABEL_TO_GENOTYPE = {label: g for g, label in GENOTYPE_LABELS.items()}


def _check_error_rates(epsilon, eta):
    """Raise ``ValueError`` unless both gene-test error rates lie in [0, 1)."""
    for name, rate in (("epsilon", epsilon), ("eta", eta)):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"{name} must be in [0, 1), got {rate}")


@dataclass(frozen=True)
class ModelParams:
    """Fixed and fitted quantities entering the likelihood factors.

    ``q``, ``epsilon``, and ``eta`` are assumed known; ``beta``, ``gamma``,
    and ``baseline`` are the estimation targets. ``baseline`` may be any
    object with a ``cumulative(t)`` method (a fitted step function or a
    parametric hazard); ``None`` means identically zero cumulative hazard.
    """

    q: float
    beta: float = 0.0
    gamma: tuple[float, ...] = ()
    epsilon: float = DEFAULT_EPSILON
    eta: float = DEFAULT_ETA
    baseline: object | None = None

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"allele frequency q must be in [0, 1], got {self.q}")
        _check_error_rates(self.epsilon, self.eta)
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))

    def cumulative_hazard(self, t):
        if self.baseline is None:
            return np.zeros_like(np.asarray(t, dtype=float)) if not np.isscalar(t) else 0.0
        return self.baseline.cumulative(t)


def founder_prior(q: float) -> np.ndarray:
    """Hardy-Weinberg genotype distribution for a founder.

    The heterozygote mass 2q(1-q) splits evenly between the paternal- and
    maternal-origin states.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"allele frequency q must be in [0, 1], got {q}")
    het = q * (1.0 - q)
    return np.array([(1.0 - q) ** 2, het, het, q * q])


#: P(a parent passes on the mutated allele), indexed by the parent's ordered
#: genotype; the origin of a heterozygous parent's own allele is irrelevant
#: to what it passes on.
TRANSMIT_PROBABILITY = (0.0, 0.5, 0.5, 1.0)


def _build_transmission() -> np.ndarray:
    tp = np.array(TRANSMIT_PROBABILITY)[:, None]  # father, one row per genotype
    tm = np.array(TRANSMIT_PROBABILITY)[None, :]  # mother, one column per genotype
    table = np.stack(
        [(1.0 - tp) * (1.0 - tm), tp * (1.0 - tm), (1.0 - tp) * tm, tp * tm], axis=-1
    )
    table.setflags(write=False)
    return table


#: Mendelian transmission table indexed [father, mother, child].
TRANSMISSION = _build_transmission()


def penetrance_factor(t, delta, x, z, params: ModelParams) -> float:
    """Phenotype likelihood for one individual at genotype ``x``.

    For affected individuals the genotype-independent baseline hazard value
    at ``t`` is omitted: it scales every carrier state equally (non-carriers
    have likelihood 0), so posteriors are unchanged.
    """
    if t < 0 or not math.isfinite(t):
        raise ValueError(f"time must be finite and non-negative, got {t}")
    x = int(x)
    if len(z) != len(params.gamma):
        raise ValueError("covariate vector length does not match gamma")
    zg = float(np.dot(z, params.gamma)) if params.gamma else 0.0
    lam = float(params.cumulative_hazard(t))
    if delta == 0:
        if x == Genotype.NON_CARRIER:
            return 1.0
        if x == Genotype.HET_PATERNAL:
            return math.exp(-lam * math.exp(params.beta + zg))
        return math.exp(-lam * math.exp(zg))
    if x == Genotype.NON_CARRIER:
        return 0.0
    if x == Genotype.HET_PATERNAL:
        risk = math.exp(params.beta + zg)
    else:
        risk = math.exp(zg)
    return math.exp(-lam * risk) * risk


def test_factor(g, x, epsilon: float, eta: float) -> float:
    """Genetic-test likelihood P(G = g | X = x).

    ``g`` is 1 (positive), 0 (negative), or None (untested, contributing a
    constant factor 1).
    """
    if g is None:
        return 1.0
    carrier = int(x) != Genotype.NON_CARRIER
    if g == 1:
        return 1.0 - epsilon if carrier else eta
    if g == 0:
        return epsilon if carrier else 1.0 - eta
    raise ValueError(f"gene test must be 0, 1, or None, got {g!r}")


def evidence_factor(record, params: ModelParams) -> np.ndarray:
    """Single-individual evidence table over the four genotype states.

    Combines the phenotype and gene-test likelihoods. For a record with
    ``phenotype_suppressed`` set (proband ascertainment correction) the
    phenotype part is replaced by 1 for every state, keeping only the test
    factor.
    """
    phi = np.ones(N_STATES)
    if not record.phenotype_suppressed:
        for x in range(N_STATES):
            phi[x] = penetrance_factor(
                record.age, record.status, x, record.covariates, params
            )
    if record.gene_test is not None:
        for x in range(N_STATES):
            phi[x] *= test_factor(record.gene_test, x, params.epsilon, params.eta)
    return phi


class FixedEvidence:
    """The parts of :func:`evidence_matrix` that a new hazard leaves alone.

    For given records and gene-test error rates ``epsilon`` and ``eta``,
    each in [0, 1) (``ValueError`` otherwise), they are: the status
    selections (affected rows take their risk as a factor and rule out the
    non-carrier state), the suppression of phenotypes (a suppressed row
    carries no hazard) and, per state, the gene-test factors times the
    ``pins`` indicator (n, 4) of allowed states, if any. A caller that
    evaluates the same records under the same error rates many times builds
    them once.
    """

    def __init__(self, status, gene_test, epsilon, eta, suppress=None, pins=None):
        _check_error_rates(epsilon, eta)
        status = np.asarray(status, dtype=int)
        gene_test = np.asarray(gene_test, dtype=int)
        live = np.ones(status.shape[0], dtype=bool)
        if suppress is not None:
            live = ~np.asarray(suppress, dtype=bool)
        self.live = live.astype(float)
        self.affected = (status == 1) & live
        factor = np.ones((N_STATES, status.shape[0]))
        factor[Genotype.NON_CARRIER, self.affected] = 0.0
        for result, noncarrier, carrier in ((1, eta, 1.0 - epsilon), (0, 1.0 - eta, epsilon)):
            factor[:, gene_test == result] *= np.array([noncarrier] + [carrier] * 3)[:, None]
        if pins is not None:
            factor *= pins.T
        self.factor = factor


def evidence_matrix(cumulative_hazard, covariates, beta, gamma, fixed: FixedEvidence,
                    *, out=None) -> np.ndarray:
    """Vectorized evidence tables for many individuals at once.

    Parameters
    ----------
    cumulative_hazard : (n,) array of each individual's baseline cumulative
        hazard at their age, ``ModelParams.cumulative_hazard(age)``; the
        caller gathers it, so that a fixed jump grid is searched once per fit
    covariates : (n, k) array or None
    beta, gamma : the origin effect and the k covariate effects
    fixed : the individuals' :class:`FixedEvidence` (statuses, gene tests
        under the error rates, suppressed phenotypes, pins)
    out : (4, n) array or None; the factors are written into it state by
        state, so that only the hazard-dependent ones are computed

    Returns
    -------
    (n, 4) array of per-individual factors, same convention as
    :func:`evidence_factor` (times ``fixed``'s pins); a transposed view of
    ``out`` when it is given.
    """
    lam = np.asarray(cumulative_hazard, dtype=float)
    n = lam.shape[0]
    if np.any(lam < 0) or not np.all(np.isfinite(lam)):
        raise ValueError("cumulative hazards must be finite and non-negative")
    if out is None:
        out = np.empty((N_STATES, n))
    k = len(gamma)
    if k:
        Z = np.asarray(covariates, dtype=float).reshape(n, k)
        zg = Z @ np.asarray(gamma, dtype=float)
    else:
        zg = np.zeros(n)
    lam = lam * fixed.live
    out[Genotype.NON_CARRIER] = fixed.factor[Genotype.NON_CARRIER]
    for state, risk in ((Genotype.HET_PATERNAL, np.exp(beta + zg)),
                        (Genotype.HET_MATERNAL, np.exp(zg))):
        phenotype = np.exp(-lam * risk)
        np.multiply(phenotype, risk, out=phenotype, where=fixed.affected)
        np.multiply(phenotype, fixed.factor[state], out=out[state])
    # the homozygote shares the maternal-origin heterozygote's phenotype
    np.multiply(phenotype, fixed.factor[Genotype.HOMOZYGOUS], out=out[Genotype.HOMOZYGOUS])
    return out.T


def origin_weights(marginals) -> np.ndarray:
    """The (2, n) origin split of an (n, 4) posterior marginal table.

    Row 0 is each individual's paternal-origin mass (``HET_PATERNAL``), row 1
    its maternal-origin mass (``HET_MATERNAL`` plus ``HOMOZYGOUS``, whose
    phenotype follows the maternal-origin hazard); non-carrier mass has no
    row. These are the weights of the M-step's records.
    """
    return np.stack((
        marginals[:, Genotype.HET_PATERNAL],
        marginals[:, Genotype.HET_MATERNAL] + marginals[:, Genotype.HOMOZYGOUS],
    ))
