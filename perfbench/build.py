#!/usr/bin/env python3
"""Build file of the golden-record benchmark.

Compiles the program (`src/main/scala`) together with the benchmark's own
Scala sources (`perfbench/src`) with the Scala compiler that ships in the
Spark distribution, so that building writes nothing outside the checkout.
Classes go to `<build dir>/classes`; a stamp of the source hashes skips the
compile when nothing changed.

    python3 perfbench/build.py            # prints the run classpath
"""
import glob
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"),
               os.path.join(ROOT, "perfbench", "src")]
COMPILE_TIMEOUT_S = 600


class BuildError(Exception):
    pass


def spark_jars():
    """The jars of the Spark distribution: `$SPARK_HOME/jars`, else those of
    the first `spark-submit` on the PATH that sits in a distribution."""
    homes = [os.environ.get("SPARK_HOME", "")]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        if os.path.isfile(os.path.join(d, "spark-submit")):
            homes.append(os.path.dirname(os.path.realpath(d)))
    for home in homes:
        jars = sorted(glob.glob(os.path.join(home, "jars", "*.jar"))) if home else []
        if jars:
            return jars
    raise BuildError("no Spark distribution found (set SPARK_HOME)")


def duckdb_jar():
    """The DuckDB JDBC driver the program's `Oracle` loads, from the local
    dependency cache (it is not part of the Spark distribution)."""
    home = os.path.expanduser("~")
    roots = [os.environ.get("COURSIER_CACHE", ""),
             os.path.join(home, ".cache", "coursier"),
             os.path.join(home, ".ivy2"), os.path.join(home, ".m2")]
    for r in roots:
        if r and os.path.isdir(r):
            hits = sorted(glob.glob(os.path.join(r, "**", "duckdb_jdbc-*.jar"), recursive=True))
            hits = [h for h in hits if not h.endswith(("-sources.jar", "-javadoc.jar"))]
            if hits:
                return hits[-1]
    raise BuildError("duckdb_jdbc jar not found in the local dependency cache")


def sources():
    out = []
    for d in SOURCE_DIRS:
        if not os.path.isdir(d):
            raise BuildError(f"missing source directory {os.path.relpath(d, ROOT)}")
        out += sorted(glob.glob(os.path.join(d, "**", "*.scala"), recursive=True))
    return out


def build():
    """Compile if needed; return the classpath (list of entries) to run with."""
    srcs = sources()
    jars = spark_jars()
    h = hashlib.sha256()
    for path in srcs + [j for j in jars if "scala-compiler" in j]:
        h.update(path.encode())
        with open(path, "rb") as f:
            h.update(f.read())
    stamp = h.hexdigest()
    classes = os.path.join(BUILD_DIR, "classes")
    stamp_file = os.path.join(BUILD_DIR, "classes.stamp")
    cp = [classes] + jars + [duckdb_jar()]
    if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
        return cp
    if os.path.exists(stamp_file):
        os.remove(stamp_file)
    subprocess.run(["rm", "-rf", classes], check=True)
    os.makedirs(classes)
    compiler = [j for j in jars if os.path.basename(j).startswith(("scala-compiler", "scala-library", "scala-reflect"))]
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", os.pathsep.join(compiler),
           "scala.tools.nsc.Main", "-nowarn", "-d", classes,
           "-classpath", os.pathsep.join(jars)] + srcs
    try:
        res = subprocess.run(cmd, cwd=ROOT, timeout=COMPILE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BuildError("scalac timed out")
    if res.returncode != 0:
        raise BuildError(f"scalac failed with exit code {res.returncode}")
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return cp


if __name__ == "__main__":
    try:
        print(os.pathsep.join(build()))
    except BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(2)
