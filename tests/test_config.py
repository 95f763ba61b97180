import numpy as np
import pytest

from safecert import ConfigError, default_kernel_spec, load_config
from safecert.config import parse_config


class TestParsing:
    def test_empty_text_gives_defaults(self):
        cfg = load_config(text="")
        assert cfg["system.alphas"] == [0.0, 0.5, 0.95]
        assert cfg["horizons"] == [5, 10, 15]
        assert cfg["data.n_trajectories"] == 1000
        assert cfg["data.mode"] == "iid"
        assert cfg["out_dir"] == "results"

    def test_assignments_comments_and_lists(self):
        text = """
        # sweep shrunk for a smoke run
        system.alphas = 0.0, 0.95
        horizons = 5        # only the short horizon
        seeds = 1,2,3
        data.n_trajectories = 50
        methods = direct, dp, imp
        """
        cfg = load_config(text=text)
        assert cfg["system.alphas"] == [0.0, 0.95]
        assert cfg["horizons"] == [5]
        assert cfg["seeds"] == [1, 2, 3]
        assert cfg["methods"] == ["direct", "dp", "imp"]

    def test_unknown_key_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("seeds = 1\ndata.n_traj = 7\n")

    def test_unparseable_value_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config("data.n_trajectories = many\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("seeds: 1,2\n")

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config(path="/nonexistent/path.cfg")

    def test_directory_rejected(self, tmp_path):
        """A directory used to pass the existence check and fail only when
        read, with an OSError."""
        with pytest.raises(ConfigError, match="not a regular file"):
            load_config(path=tmp_path)

    def test_key_set_twice_names_both_lines(self):
        """The last assignment used to win: seeds = 1 then seeds = 2 ran seed 2."""
        with pytest.raises(ConfigError, match="line 4: key 'seeds' is already set on line 2"):
            parse_config("# two runs\nseeds = 1\nhorizons = 5\nseeds = 2\n")


class TestValidation:
    @pytest.mark.parametrize(
        "line",
        [
            "data.mode = bootstrap",
            "methods = direct, nn",
            "data.n_trajectories = 0",
            "mc.rollouts = -5",
            "seeds =",
            "system.alphas = 0.5, 1.0",
            "calibration.delta = 1.5",
        ],
    )
    def test_bad_values_rejected(self, line):
        with pytest.raises(ConfigError):
            parse_config(line + "\n")

    @pytest.mark.parametrize(
        "text, key",
        [
            ("calibration.bins = 11\ndata.n_calibration = 10", "calibration.bins"),
            ("imp.radius = -0.01", "imp.radius"),
            ("ssr.delta = -0.1", "ssr.delta"),
            ("ssr.delta = 1.5", "ssr.delta"),
            ("dp.ambiguity = -0.002", "dp.ambiguity"),
            ("data.n_pairs = -5", "data.n_pairs"),
            ("horizons = 0", "horizons"),
            ("horizons = 5, -1", "horizons"),
            ("seeds = -1", "seeds"),
            ("seeds = 1, -2", "seeds"),
            ("data.mode = dependent\ndata.n_trajectories = 30\nhorizons = 5, 2\n"
             "data.n_pairs = 61", "data.n_pairs"),
            ("system.sigma = 0", "system.sigma"),
            ("system.h = -0.1", "system.h"),
            ("kernel.dp.lam = -1e-6", "kernel.dp.lam"),
            ("kernel.direct.lam = nan", "kernel.direct.lam"),
            ("kernel.dp.lam = inf", "kernel.dp.lam"),
            ("kernel.direct.variances = 1, 1, 1", "kernel.direct.variances"),
            ("kernel.dp.variances = 0.5", "kernel.dp.variances"),
            ("kernel.dp.variances = -1, 1", "kernel.dp.variances"),
            ("kernel.direct.variances = 0, 1", "kernel.direct.variances"),
            ("kernel.dp.variances = nan, 1", "kernel.dp.variances"),
            ("kernel.direct.variances = 1, inf", "kernel.direct.variances"),
            ("system.sigma = nan", "system.sigma"),
            ("system.sigma = inf", "system.sigma"),
            ("system.h = inf", "system.h"),
            ("system.beta_c = nan", "system.beta_c"),
            ("system.gamma_c = -inf", "system.gamma_c"),
            ("imp.radius = nan", "imp.radius"),
            ("imp.radius = inf", "imp.radius"),
            ("dp.ambiguity = nan", "dp.ambiguity"),
            ("dp.ambiguity = inf", "dp.ambiguity"),
            ("methods = direct, dp, direct", "methods"),
            ("methods =", "methods"),
        ],
    )
    def test_out_of_range_values_name_their_key(self, text, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(text + "\n")

    def test_range_edges_accepted(self):
        parse_config("calibration.bins = 10\ndata.n_calibration = 10\nimp.radius = 0\n"
                     "ssr.delta = 1\ndp.ambiguity = 0\ndata.n_pairs = 0\nhorizons = 1\n")
        parse_config("data.mode = dependent\ndata.n_trajectories = 30\nhorizons = 5, 2\n"
                     "data.n_pairs = 60\n")

    def test_kernel_defaults_and_overrides_accepted(self):
        parse_config("kernel.dp.lam = 0\nkernel.direct.variances =\n")
        parse_config("kernel.direct.variances = 0.5, 2\nkernel.dp.lam = 1e-6\n")


class TestHashing:
    def test_comments_and_order_do_not_change_the_hash(self):
        a = load_config(text="seeds = 1,2\nhorizons = 5\n")
        b = load_config(text="# note\nhorizons = 5\nseeds = 1,2  # same values\n")
        assert a.config_hash == b.config_hash
        assert len(a.config_hash) == 12

    def test_values_change_the_hash(self):
        a = load_config(text="seeds = 1,2\n")
        b = load_config(text="seeds = 1,3\n")
        assert a.config_hash != b.config_hash


class TestKernelDefaults:
    def test_tuned_values_selected_by_mode_horizon_method(self):
        spec = default_kernel_spec("direct", 15, "iid")
        assert np.allclose(np.array(spec.lengthscales) ** 2, [1.282, 1.416])
        assert spec.lam == 2.791e-7
        spec = default_kernel_spec("dp", 5, "dependent")
        assert np.allclose(np.array(spec.lengthscales) ** 2, [0.477, 0.444])
        assert spec.lam == 9.892e-6

    def test_abstractions_share_the_dp_defaults(self):
        assert default_kernel_spec("imp", 10, "iid") == default_kernel_spec("dp", 10, "iid")
        assert default_kernel_spec("ssr", 10, "iid") == default_kernel_spec("dp", 10, "iid")

    def test_untuned_horizon_falls_back_to_nearest(self):
        assert default_kernel_spec("direct", 7, "iid") == default_kernel_spec("direct", 5, "iid")
        assert default_kernel_spec("direct", 13, "iid") == default_kernel_spec("direct", 15, "iid")

    def test_overrides_win(self):
        spec = default_kernel_spec("direct", 15, "iid", variances=[1.0, 1.0], lam=1e-3)
        assert spec.lengthscales == (1.0, 1.0)
        assert spec.lam == 1e-3

    def test_config_override_via_text(self):
        cfg = load_config(text="kernel.dp.variances = 0.5, 0.5\nkernel.dp.lam = 1e-4\n")
        spec = cfg.kernel_spec("dp", 10)
        assert np.allclose(np.array(spec.lengthscales) ** 2, [0.5, 0.5])
        assert spec.lam == 1e-4

    def test_n_pairs_defaults_to_full_slicing(self):
        cfg = load_config(text="data.n_trajectories = 40\n")
        assert cfg.n_pairs(5) == 200
        cfg2 = load_config(text="data.n_pairs = 77\n")
        assert cfg2.n_pairs(5) == 77
