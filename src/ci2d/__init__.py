"""ci2d: spectral toolkit for intermittent convex-integration flows on T^2."""

from .building_blocks import (Direction, WaveParams, dirichlet_kernel,
                              directions, eta, intermittent_flow, wave_b,
                              wave_psi)
from .ci_step import (CutoffProfile, NSRState, StepDiagnostics,
                      assemble_stress, init_state, iterate_step, mollify,
                      nsr_residual, temporal_cutoff)
from .errors import (AliasingRisk, CI2DError, ConfigError, ConstraintViolation,
                     DerivativeChannelMissing, DivisibilityError, InvalidInput,
                     NonFiniteValue, NonIntegerFrequency, PaddingError, RankError)
from .fourier_calculus import (FreqBand, anti_divergence, frac_laplacian,
                               helmholtz, inv_grad, project,
                               sym_tracefree_product, tf_square,
                               tracefree_product)
from .param_schedule import (PaperSchedule, PowerOfA, ToyParams, theta_star,
                             toy_params, validate_schedule)
from .spectral_field import (Grid2, SpectralField, TimeTrack, analyze, cn_norm,
                             derive, divergence, l1_norm, lp_norm, make_grid,
                             mean, multiply, multiply_mode, perp_grad,
                             random_field)
from .stress_geometry import RampProfile, decompose, default_ramp, reconstruct

__version__ = "0.1.0"
