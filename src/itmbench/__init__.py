"""itmbench: benchmark toolkit for single-image inverse tone mapping.

LDR/HDR pair synthesis through a virtual camera, perceptually uniform
scoring (PU-PSNR/SSIM), analytic ITM operators and losses, and a desk-scale
simulator for the mean-reverting restoration SDE.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DomainError, FormatError, InputError, ItmError,
                     NumericError, ParseError, RangeError, ShapeError)
from .image_io import (LinearImage, Ldr8Image, read_hdr, read_ldr8, read_pfm,
                       write_hdr, write_ldr8, write_pfm)
from .color import (DisplayMapping, MuLawParams, linear_to_srgb, luminance,
                    mu_law, srgb_to_linear, to_display_luminance)
from .pu21 import (MetricReport, PuEncoding, format_leaderboard, pu_encode,
                   pu_psnr, pu_ssim, rank_teams, rmse_linear, score_dataset)
from .camera import (Crf, ExposureRange, NoiseParams, SynthesisRecord,
                     SynthesisSettings, estimate_exposure_range,
                     generate_dataset, simulate_ldr)
from .operators import (MaskParams, MaskTriple, blurred_luminance,
                        exposure_masks, fuse_exposures, naive_expand,
                        residual_project)
from .losses import (LossWeights, UpfParams, color_loss, denoise_loss,
                     linear_l1, recon_loss, score_matching_loss,
                     ssim_pu_loss, total_loss, tv_loss, upf_loss)
from .sde import (SdeSchedule, backward_simulate, forward_simulate,
                  itm_sde_demo, make_ou_score, ou_moments)
from .analysis import (SaturationSplit, error_map, error_stats,
                       intensity_error_joint, saturation_split)
