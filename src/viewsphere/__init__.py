"""Multi-view 3D object recognition and pose estimation from entropy-selected best views.

The pipeline: normalize a mesh into the unit cube, voxelize it, render 60
orthographic depth views from a fixed spherical rig, score each view by
Shannon entropy, pick the entropy-map peaks as best views, classify each
best view, and fuse the per-view votes into one category and one discretized
pose offset.
"""

from .entropy import (
    EntropyMap,
    Peak,
    entropy_map_from_views,
    find_peaks,
    image_entropy,
    read_map_csv,
    write_map_csv,
)
from .fusion import FusedPrediction, PoseOffset, fuse, pose_offset
from .mesh import (
    DegenerateGeometryError,
    MeshError,
    OffParseError,
    TriangleMesh,
    add_gaussian_noise,
    load_off,
    normalize_to_unit_cube,
    parse_off,
    write_off,
)
from .predict import (
    KnnEntropyPredictor,
    KnnViewPredictor,
    ViewPrediction,
    knn_entropy_predictor_train,
    knn_view_predictor_train,
    load_predictor,
    map_mae,
    oracle_entropy_predictor,
    read_predictions,
    write_predictions,
)
from .render import DepthImage, read_pgm, render_all_views
from .viewrig import (
    N_AZIMUTHS,
    N_RINGS,
    N_VIEWS,
    RADIUS,
    Viewpoint,
    build_rig,
    index_of,
    viewpoint_from_index,
)
from .voxel import VoxelGrid, load_grid, save_grid, voxelize

__version__ = "0.1.0"
