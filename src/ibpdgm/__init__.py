"""Deep generative model with a truncated Indian Buffet Process prior,
trained by black-box variational inference with control variates.

Importing the package sets one process-wide malloc policy (`_heap`):
under glibc, freed heap memory is kept for reuse instead of being handed
back to the kernel, so repeated training steps, metrics passes and
evaluation calls do not fault their temporaries in afresh.  The process
holds its largest working set until it exits.
"""

from . import _heap

_heap.keep_freed_heap(_heap.process_libc())

from .bbvi import (ElboBreakdown, NumericError, control_variate_coeffs,
                   estimate_elbo_and_grads, score_function_grad)
from .data import (Dataset, DataFormatError, binarize_epoch, load_amat,
                   load_idx, stratified_label_split, synth_blobs,
                   synth_ibp_data)
from .ibp import (GlobalSticks, active_components, ibp_prior_log_prob_from_sticks,
                  sticks_prior_log_prob, sticks_prior_sample)
from .model import (IbpDgm, build_model, classify, decode, encode, generate,
                    load_checkpoint, predict_batch, save_checkpoint,
                    theta_log_prior)
from .nn import AdamState, DenseNet, adam_step, backward, forward, glorot_init
from .training import RunConfig, TrainResult, component_report, error_rate, train

__version__ = "0.1.0"
