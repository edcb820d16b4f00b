import pytest

from c0ip.cli import ConfigError, main, parse_config, run, serialize_config


def test_parse_minimal_defaults():
    cfg = parse_config("problem = clamped-plate\nlevels = 1..4\n")
    assert cfg.problem == "clamped-plate"
    assert cfg.levels == (1, 2, 3, 4)
    assert cfg.sigma == 10.0
    assert cfg.domain == "unit-square"
    assert cfg.case_name == "bubble"
    assert cfg.norms == ("l2", "h", "energy", "qh")
    assert cfg.output_path == "clamped-plate.csv"


def test_parse_single_level_and_comments():
    cfg = parse_config("# study\nproblem = cahn-hilliard  # the problem\nlevels = 3\n")
    assert cfg.levels == (3,)
    assert cfg.case_name == "cosine"


def test_parse_rejects_small_sigma():
    with pytest.raises(ConfigError, match="sigma must be >= 1"):
        parse_config("problem = clamped-plate\nlevels = 1..2\nsigma = 0.5\n")


@pytest.mark.parametrize(
    "key, problem", [("sigma", "clamped-plate"), ("alpha", "dirichlet-control")]
)
def test_parse_rejects_infinite_sigma_and_alpha(key, problem):
    with pytest.raises(ConfigError, match=f"line 3: {key} must be finite"):
        parse_config(f"problem = {problem}\nlevels = 1..2\n{key} = inf\n")


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_run_refuses_sigma_that_overflows_assembly(tmp_path, capsys):
    out = tmp_path / "plate.csv"
    cfg = tmp_path / "plate.cfg"
    cfg.write_text(f"problem = clamped-plate\nlevels = 1..2\nsigma = 1e308\noutput = {out}\n")
    assert main(["run", str(cfg)]) == 1
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_parse_rejects_unknown_key_with_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("problem = clamped-plate\nlevels = 1..2\npenalty = 3\n")


def test_parse_rejects_missing_required():
    with pytest.raises(ConfigError, match="problem"):
        parse_config("levels = 1..2\n")
    with pytest.raises(ConfigError, match="levels"):
        parse_config("problem = clamped-plate\n")


def test_parse_rejects_bad_levels():
    with pytest.raises(ConfigError, match="levels"):
        parse_config("problem = clamped-plate\nlevels = 0..4\n")
    with pytest.raises(ConfigError, match="levels"):
        parse_config("problem = clamped-plate\nlevels = 3..9\n")


def test_parse_rejects_case_problem_mismatch():
    with pytest.raises(ConfigError, match="belongs to problem"):
        parse_config("problem = clamped-plate\nlevels = 1..2\ncase = cosine\n")


def test_parse_rejects_bad_alpha_and_norms():
    with pytest.raises(ConfigError, match="alpha"):
        parse_config("problem = dirichlet-control\nlevels = 1..2\nalpha = 0\n")
    with pytest.raises(ConfigError, match="norms"):
        parse_config("problem = clamped-plate\nlevels = 1..2\nnorms = l2,h3\n")


def test_config_roundtrip():
    text = (
        "problem = dirichlet-control\n"
        "domain = unit-square\n"
        "levels = 1..3\n"
        "sigma = 8\n"
        "alpha = 0.25\n"
        "case = reference\n"
        "output = out.csv\n"
        "norms = l2,h\n"
        "reference-level = 5\n"
    )
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)) == cfg


def test_run_clamped_plate_writes_csv(tmp_path, capsys):
    out = tmp_path / "plate.csv"
    cfg = parse_config(
        f"problem = clamped-plate\nlevels = 1..3\nnorms = l2,h\noutput = {out}\n"
    )
    assert run(cfg) == 0
    text = out.read_text()
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == "level,h,ndofs,err_l2,err_h,eoc_l2,eoc_h,solver_iters,seconds"
    assert len(lines) == 4
    errs = [float(l.split(",")[3]) for l in lines[1:]]
    assert errs[0] > errs[1] > errs[2]
    captured = capsys.readouterr()
    assert "final eoc" in captured.out


def test_run_cahn_hilliard_prints_compatibility(tmp_path, capsys):
    out = tmp_path / "ch.csv"
    cfg = parse_config(
        f"problem = cahn-hilliard\nlevels = 2..3\nnorms = h\noutput = {out}\n"
    )
    assert run(cfg) == 0
    captured = capsys.readouterr()
    assert "compatibility defect" in captured.out
    defect = float(captured.out.split("compatibility defect:")[1].split()[0])
    assert abs(defect) < 1e-10


def test_run_zero_control_exact_zeros(tmp_path):
    out = tmp_path / "zero.csv"
    cfg = parse_config(
        "problem = dirichlet-control\nlevels = 1..2\ncase = zero\n"
        f"norms = l2\nreference-level = 3\noutput = {out}\n"
    )
    assert run(cfg) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    for line in lines:
        assert float(line.split(",")[3]) == 0.0


def test_run_reports_failure(tmp_path):
    # sigma below the pentagon coercivity threshold fails cleanly
    out = tmp_path / "fail.csv"
    cfg = parse_config(
        "problem = cahn-hilliard\ncase = cosine-flux\ndomain = pentagon150\n"
        f"levels = 2..3\nsigma = 5\nreference-level = 4\noutput = {out}\n"
    )
    assert run(cfg) == 1
    assert not out.exists()


def test_csv_identical_between_runs(tmp_path):
    cfgtext = "problem = clamped-plate\nlevels = 1..2\nnorms = l2\n"
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        cfg = parse_config(cfgtext + f"output = {out}\n")
        assert run(cfg) == 0
        lines = []
        for line in out.read_text().splitlines():
            if line.startswith("#") or line.startswith("level"):
                lines.append(line)
            else:
                lines.append(",".join(line.split(",")[:-1]))  # drop seconds
        outs.append("\n".join(lines))
    assert outs[0] == outs[1]


def test_main_list_cases(capsys):
    assert main(["list-cases"]) == 0
    out = capsys.readouterr().out
    for name in ("bubble", "cosine", "cosine-flux", "reference", "zero"):
        assert name in out


def test_main_check_mesh(capsys):
    assert main(["check-mesh", "hexagon", "1..3"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_main_check_mesh_bad_domain(capsys):
    assert main(["check-mesh", "flubber", "1..2"]) == 1


def test_main_run_missing_config(capsys):
    assert main(["run", "/nonexistent/config.txt"]) == 1


def test_main_run_config_file(tmp_path, capsys):
    out = tmp_path / "r.csv"
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text(
        f"problem = clamped-plate\nlevels = 1..2\nnorms = l2\noutput = {out}\n"
    )
    assert main(["run", str(cfgfile)]) == 0
    assert out.exists()


def test_main_check_mesh_bad_levels_names_the_argument(capsys):
    assert main(["check-mesh", "hexagon", "1..x"]) == 1
    err = capsys.readouterr().err
    assert "levels" in err
    assert "line 0" not in err
