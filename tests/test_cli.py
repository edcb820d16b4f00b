import re

import pytest

from c0ip.cli import ConfigError, main, parse_config, run


def test_parse_minimal_defaults():
    study, output = parse_config("problem = clamped-plate\nlevels = 1..4\n")
    assert study.case.problem == "clamped-plate"
    assert study.levels == (1, 2, 3, 4)
    assert study.sigma == 10.0
    assert study.domain.name == "unit-square"
    assert study.case.name == "bubble"
    assert study.norms == ("l2", "h", "energy", "qh")
    assert output == "clamped-plate.csv"


def test_parse_single_level_and_comments():
    study, _ = parse_config("# study\nproblem = cahn-hilliard  # the problem\nlevels = 3\n")
    assert study.levels == (3,)
    assert study.case.name == "cosine"


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


def test_parse_accepts_every_level_up_to_the_cap():
    study, _ = parse_config("problem = clamped-plate\nlevels = 1..7\n")
    assert study.levels == (1, 2, 3, 4, 5, 6, 7)


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


def test_parse_rejects_repeated_norm():
    # a CSV with two err_l2 columns loses one to any reader keyed by header
    with pytest.raises(ConfigError, match="line 3: repeated norm l2"):
        parse_config("problem = clamped-plate\nlevels = 1..2\nnorms = l2, l2, h\n")


def test_parse_every_key():
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
    study, output = parse_config(text)
    assert study == parse_config(text)[0]
    assert study.case.problem == "dirichlet-control"
    assert study.levels == (1, 2, 3)
    assert study.domain.name == "unit-square"
    assert study.sigma == 8.0
    assert study.alpha == 0.25
    assert study.case.name == "reference"
    assert output == "out.csv"
    assert study.norms == ("l2", "h")
    assert study.reference_level == 5


def test_run_clamped_plate_writes_csv(tmp_path, capsys):
    out = tmp_path / "plate.csv"
    cfg = parse_config(
        f"problem = clamped-plate\nlevels = 1..3\nnorms = l2,h\noutput = {out}\n"
    )
    assert run(*cfg) == 0
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
    assert run(*cfg) == 0
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
    assert run(*cfg) == 0
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
    assert run(*cfg) == 1
    assert not out.exists()


def test_csv_identical_between_runs(tmp_path):
    cfgtext = "problem = clamped-plate\nlevels = 1..2\nnorms = l2\n"
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        cfg = parse_config(cfgtext + f"output = {out}\n")
        assert run(*cfg) == 0
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
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["level", "vertices", "triangles", "edges", "h", "area_defect"]
    assert [row.split()[:4] for row in rows] == [
        ["1", "15", "16", "30"], ["2", "45", "64", "108"], ["3", "153", "256", "408"]
    ]


# a strictly convex 7-gon on which rounded angle classes split across levels
HEPTAGON = """\
0.9741182987695084 0.22603880198408127
0.6773904224579815 0.7356236915449348
-0.46421227456467584 0.88572397740125
-0.46323365554782947 -0.8862361876880197
-0.31418311617046785 -0.9493624015692923
0.64175937211909 -0.7669060622379454
0.8279774771113929 -0.5607613551202087
"""


def test_check_mesh_on_heptagon(tmp_path, capsys):
    path = tmp_path / "heptagon.txt"
    path.write_text(HEPTAGON)
    assert main(["check-mesh", str(path), "1..3"]) == 0
    out, err = capsys.readouterr()
    assert [line.split()[0] for line in out.splitlines()[1:]] == ["1", "2", "3"]
    assert err == ""


def test_run_heptagon_names_the_failing_factor(tmp_path, capsys):
    # the level-3 reference factor is indefinite at sigma 10 on this 7-gon
    path = tmp_path / "heptagon.txt"
    path.write_text(HEPTAGON)
    out = tmp_path / "hept.csv"
    cfgfile = tmp_path / "hept.cfg"
    cfgfile.write_text(
        f"problem = cahn-hilliard\ncase = cosine-flux\ndomain = {path}\nlevels = 1..2\n"
        f"reference-level = 3\nsigma = 10\noutput = {out}\n"
    )
    assert main(["run", str(cfgfile)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: level 3 (cahn-hilliard, sigma 10): ")
    assert "leading minor not positive definite" in err
    assert "Traceback" not in err
    assert not out.exists()


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


PLATE = "problem = clamped-plate\nlevels = 1..2\n"
CONTROL = "problem = dirichlet-control\nlevels = 1..2\n"
CH = "problem = cahn-hilliard\nlevels = 1..2\n"


@pytest.mark.parametrize(
    "text, line, message",
    [
        (PLATE + "sigma 5\n", 3, "expected 'key = value'"),
        (PLATE + "levels = 3\n", 3, "duplicate key 'levels'"),
        (PLATE + "penalty = 3\n", 3, "unknown key 'penalty'"),
        ("problem = plate\nlevels = 1..2\n", 1,
         "problem must be one of clamped-plate, dirichlet-control, cahn-hilliard"),
        ("problem = clamped-plate\nlevels = 1..x\n", 2, "levels must be 'a..b' or an integer"),
        ("problem = clamped-plate\nlevels = 0..4\n", 2, r"levels must lie within \[1, 7\]"),
        ("problem = clamped-plate\nlevels = 1..8\n", 2, r"levels must lie within \[1, 7\]"),
        ("problem = clamped-plate\nlevels = 3..2\n", 2,
         "the lower level 3 must not exceed the upper level 2"),
        (PLATE + "sigma = ten\n", 3, "sigma must be a number"),
        (PLATE + "sigma = 0.5\n", 3, "sigma must be >= 1"),
        (PLATE + "sigma = nan\n", 3, "sigma must be >= 1"),
        (PLATE + "sigma = inf\n", 3, "sigma must be finite"),
        (CONTROL + "alpha = small\n", 3, "alpha must be a number"),
        (CONTROL + "alpha = 0\n", 3, "alpha must be > 0"),
        (CONTROL + "alpha = inf\n", 3, "alpha must be finite"),
        (CH + "alpha = 3\n", 3, "alpha is for dirichlet-control only, not case 'cosine'"),
        (PLATE + "alpha = 3\n", 3, "alpha is for dirichlet-control only, not case 'bubble'"),
        (PLATE + "case = nope\n", 3, "unknown case 'nope'"),
        (PLATE + "case = cosine\n", 3, "case 'cosine' belongs to problem 'cahn-hilliard'"),
        (PLATE + "norms = l2,h3\n", 3, "norms must be a subset of {l2, h, energy, qh}"),
        (PLATE + "norms = ,\n", 3, "norms must be a subset of {l2, h, energy, qh}"),
        (PLATE + "norms = h, l2, h\n", 3, "repeated norm h: norms must not repeat"),
        (CONTROL + "reference-level = 4.5\n", 3, "reference-level must be an integer"),
        (CONTROL + "reference-level = 2\n", 3, "reference-level must exceed the finest level"),
        (CONTROL + "reference-level = 9\n", 3, "be at most 8, got 9"),
        (PLATE + "reference-level = 5\n", 3,
         "reference-level is for reference-based cases only, not case 'bubble'"),
        (CH + "case = cosine-flux\nreference-level = 3\nalpha = 1\n", 5,
         "alpha is for dirichlet-control only"),
        ("problem = dirichlet-control\nlevels = 2..7\n", 2,
         "reference level 9 exceeds the maximum of 8"),
        (PLATE + "domain = hexagon\n", 3,
         r"case 'bubble' is defined on \('unit-square',\), not 'hexagon'"),
        (CONTROL + "domain = no/such/vertices.txt\n", 3,
         "or a vertex file: .*No such file or directory: 'no/such/vertices.txt'"),
    ],
)
def test_parse_refuses_with_line_number(text, line, message):
    with pytest.raises(ConfigError, match=f"^line {line}: .*{message}"):
        parse_config(text)


def test_case_domain_refusal_names_the_vertex_file(tmp_path, capsys):
    # an exact-error case takes only its built-in domain by name, and the
    # refusal names a vertex file by its path, not by its vertex array
    square = tmp_path / "square.txt"
    square.write_text("0 0\n1 0\n1 1\n0 1\n")
    cfg = tmp_path / "plate.cfg"
    cfg.write_text(f"problem = clamped-plate\nlevels = 1..2\ndomain = {square}\n")
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: line 3: case 'bubble' is defined on ('unit-square',), not '{square}'\n"
    )


def test_parse_refuses_malformed_vertex_file_with_line_number(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0\n1\n")
    with pytest.raises(ConfigError, match=f"^line 3: .*: {re.escape(str(bad))}:2: expected 'x y'"):
        parse_config(CONTROL + f"domain = {bad}\n")


def test_check_mesh_reversed_levels(capsys):
    assert main(["check-mesh", "hexagon", "3..2"]) == 1
    err = capsys.readouterr().err
    assert "argument levels: the lower level 3 must not exceed the upper level 2" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_vertex_file_refused_by_config_and_check_mesh(tmp_path, capsys, value):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"0 0\n1 0\n1 {value}\n0 1\n")
    with pytest.raises(ConfigError, match="^line 3: .*polygon vertex 2 is not finite"):
        parse_config(CONTROL + f"domain = {bad}\n")
    assert main(["check-mesh", str(bad), "1..2"]) == 1
    assert "polygon vertex 2 is not finite" in capsys.readouterr().err


def test_output_in_missing_directory_refused_before_the_study(tmp_path, capsys, monkeypatch):
    import c0ip.cli as cli_mod

    calls = []
    monkeypatch.setattr(cli_mod, "run_study", lambda study: calls.append(study))
    missing = tmp_path / "no" / "such"
    cfg = tmp_path / "plate.cfg"
    cfg.write_text(PLATE + f"output = {missing / 'plate.csv'}\n")
    assert main(["run", str(cfg)]) == 1
    assert calls == []
    assert capsys.readouterr().err == (
        f"error: line 3: output directory {str(missing)!r} does not exist\n"
    )
    assert not missing.parent.exists()


def test_output_that_is_a_directory_refused_before_the_study(tmp_path, capsys, monkeypatch):
    import c0ip.cli as cli_mod

    calls = []
    monkeypatch.setattr(cli_mod, "run_study", lambda study: calls.append(study))
    cfg = tmp_path / "plate.cfg"
    cfg.write_text(PLATE + f"output = {tmp_path}\n")
    assert main(["run", str(cfg)]) == 1
    assert calls == []
    assert capsys.readouterr().err == f"error: line 3: output {str(tmp_path)!r} is a directory\n"


def test_default_output_that_is_a_directory_refused(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "clamped-plate.csv").mkdir()
    with pytest.raises(ConfigError, match="^default output 'clamped-plate.csv' is a directory$"):
        parse_config(PLATE)


def test_config_that_is_not_utf8_refused(tmp_path, capsys):
    cfg = tmp_path / "plate.cfg"
    cfg.write_bytes(b"problem = clamped-plate\nlevels = 1..2 \xff\n")
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config: 'utf-8' codec can't decode byte 0xff")
    assert "Traceback" not in err


def test_vertex_file_that_is_not_utf8_refused_by_config_and_check_mesh(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0 0\n1 0\n1 1\xff\n0 1\n")
    cfg = tmp_path / "control.cfg"
    cfg.write_text(CONTROL + f"domain = {bad}\n")
    message = f"{bad}: not UTF-8 text (invalid start byte at byte 11)"
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: domain must be a built-in name")
    assert err.endswith(f"or a vertex file: {message}\n")
    assert main(["check-mesh", str(bad), "1..2"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
