"""Latent-hierarchy classification.

Learns a one-to-one mapping from class labels to binary strings jointly
with an LSTM classifier that predicts those strings from frozen features,
then materializes the learned hierarchy as the prefix tree of the strings.
"""

from .autodiff import Tape, Tensor
from .data import (BatchIterator, LabeledDataset, PlantedHierarchySpec,
                   generate_planted, load_features, load_mnist, save_features,
                   train_test_split)
from .losses import (base_loss, bias_regularizer, fixed_table_loss,
                     structured_string_loss, total_loss)
from .networks import (Class2StrNet, CollisionError, LhClassifierNet,
                       Str2ClassNet, StringLookupTable, freeze_lookup, strings_of)
from .nn import Adam, LstmCell, Linear, ParameterSet, load_checkpoint, save_checkpoint
from .tree import (CanonicalForm, build_tree, canonicalize, export_tree,
                   tree_distance, tree_from_json)
from .training import (BaseModel, EvalResult, RunConfig, TrainReport, count_params,
                       evaluate, parameter_reduction, random_lookup_table, train_base,
                       train_lh)

__version__ = "0.1.0"
