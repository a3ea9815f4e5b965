"""labelattn: training one classifier from multiple noisy annotation sets by
attending over the label sets with meta-training feedback."""

from .annotators import (AnnotatorSpec, ConfusionMatrix, cm_adversarial, cm_average,
                         cm_hammer_spammer, cm_ordered_confusion, cm_structured_flips,
                         corrupt, empirical_cm, noise_level_of)
from .autodiff import (BceTerms, Tensor, bce_loss, constant, detach, finite_diff_grad,
                       gradients, matmul, relu, sigmoid, softmax, tensor_new)
from .config import ExperimentConfig, config_hash, parse_config
from .data import (Batch, LabeledDataset, SyntheticSpec, attach_annotators,
                   load_cifar10, minibatches, one_hot, split, synth_blobs)
from .experiment import (ResultRecord, emit, read_records, run_experiment, run_single,
                         sweep_annotators, sweep_noise)
from .metatrain import (AttentionParams, LabelPath, MetaConfig, attend, attention_gradients,
                        attention_init, attention_step, binarize, collect_feedback,
                        final_step, label_path, meta_step, probe_features, reweighted_loss,
                        sample_label, theorem1_gap, train_attention, train_baseline,
                        train_iteration)
from .metrics import accuracy, auc_roc, mean_auc, per_class_auc
from .model import (ArrayForward, Classifier, ForwardResult, classifier_init, forward,
                    forward_arrays, param_gradients, params_get, params_set, predict_class,
                    stacked_features)
from .optim import AdamState, adam_init, adam_step, sgd_step

__version__ = "0.1.0"
