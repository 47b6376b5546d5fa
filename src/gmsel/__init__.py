"""Instance selection and ensembles for imbalanced two-class data, with a
1-NN core, G-mean evaluation and a numerical verification lab."""

from .data import (
    Attribute,
    Dataset,
    Scaler,
    apply_scaler,
    fit_scaler,
    parse_csv,
    parse_keel,
    stratified_two_fold,
)
from .ensemble import EnsembleModel, bag_1nn, erus, eusboost, predict_ensemble, rusboost
from .knn import NeighbourIndex, ReferenceSet, classify_1nn, classify_knn, loo_gm
from .metrics import (
    ConfusionCounts,
    SignTestResult,
    balanced_auc,
    bonferroni,
    confusion,
    f_measure,
    gm,
    sign_test,
    tnr,
    tpr,
    win_counts,
)
from .selection import (
    EusParams,
    PsoParams,
    cnn_mod,
    eus,
    ncl,
    oss,
    pso_select,
    random_edit,
    rus,
    tl_cnn,
    tomek_links,
)

__version__ = "0.1.0"
