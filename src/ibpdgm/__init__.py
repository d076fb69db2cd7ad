"""Deep generative model with a truncated Indian Buffet Process prior,
trained by black-box variational inference with control variates."""

from .bbvi import (ElboBreakdown, NumericError, ScoreSampleSet,
                   control_variate_coeffs, estimate_elbo_and_grads,
                   score_function_grad)
from .data import (Dataset, DataFormatError, binarize_epoch, load_amat,
                   load_idx, stratified_label_split, synth_blobs,
                   synth_ibp_data)
from .ibp import (GlobalSticks, active_components,
                  ibp_prior_log_prob_from_sticks, sticks_prior_log_prob)
from .model import (IbpDgm, build_model, classify, decode, encode, generate,
                    load_checkpoint, predict_batch, save_checkpoint,
                    theta_log_prior)
from .nn import AdamState, DenseNet, adam_step, backward, forward, glorot_init
from .training import RunConfig, TrainResult, component_report, error_rate, train

__version__ = "0.1.0"
