"""Optimal-transport generative maps for Bayesian posterior sampling.

Learns transport maps (gradients of convex potentials) from a Gaussian
reference to a posterior known up to a normalizing constant, then produces
independent samples and center-outward inference summaries.
"""

from .potential import (
    Activation,
    AffineMap,
    MaxPotentialMap,
    PotentialBank,
    SingularJacobian,
    activation_antiderivative,
    activation_value,
    transport_hard,
)
from .target import (
    GaussianMixtureSpec,
    LogisticPosteriorSpec,
    TargetDensity,
    gaussian_mixture,
    logistic_posterior,
    std_normal,
)
from .samples import SampleMatrix
from .trainer import (
    TrainConfig,
    TrainReport,
    init_by_sinkhorn,
    train,
    train_affine,
    train_mixed,
)
from .mixed import (
    MixedMap,
    MixedTarget,
    conditional_prob_estimate,
    gmm_posterior_logdensity,
    gmm_push,
    mixed_logdet,
)
from .inference import (
    NonConvergence,
    QuantileContour,
    RankResult,
    bayes_pvalue,
    inverse,
    quantile_contour,
    rank,
    sample,
    sign_curves,
    simultaneous_ci,
)
from .metrics import (
    ci_difference_ratio,
    standardized_w2,
    tv_latent,
    w2_entropic,
    w2_exact,
)

__version__ = "0.1.0"
