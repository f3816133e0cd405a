"""crosswise: streaming crossing-direction prediction for VRUs at intersections."""

from .geom import IntersectionGeometry, ZoneKind, ZoneType, demo_geometry
from .ingest import (Detection, FrameRecord, PoseDetection, ScenarioSpec, VruTruth,
                     generate_scenario, read_labels, read_stream, write_labels,
                     write_stream)
from .features import FEATURE_DIM, LAYOUT_HASH, FeatureWindow
from .model import (ModelConfig, ModelParams, Prediction, forward_batch, init_params,
                    load_params, save_params)
from .evaluate import (ConfusionCounts, TrainConfig, WindowDataset, ablation,
                       build_dataset, head_sweep, metrics, train)
from .pipeline import I2VAlert, Pipeline, TrackState, bench, run

__version__ = "0.1.0"
