from setuptools import find_packages, setup

setup(
    name="ribbon-repro",
    version="1.1.0",
    description=(
        "Reproduction of Ribbon (SC'21): cost-effective, QoS-aware DL "
        "inference on diverse cloud instance pools"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # The compiled dispatch loop and GP likelihood are built from these
    # sources on first use.
    package_data={"repro.simulator": ["_dispatch.c"], "repro.gp": ["_lml.c"]},
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    extras_require={"test": ["pytest", "hypothesis"]},
    entry_points={
        "console_scripts": [
            "repro-ribbon=repro.cli:main",
            "repro-lint=repro.devtools.lint.cli:main",
        ]
    },
)
