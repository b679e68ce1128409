"""The simulated userland: programs dispatchable inside containers.

Each program is a callable taking a :class:`ProcessContext` and returning
an exit code (raising :class:`ProgramError` for diagnostics).  The
registry is extensible — the coMtainer toolset registers its
``coMtainer-build``/``-rebuild``/``-redirect`` entry points the same way.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.containers.container import ProcessContext, ProgramError
from repro.pkg.apt import AptFacade
from repro.pkg.database import DpkgDatabase, DpkgStatusError
from repro.toolchain.archiver import ArchiverError, run_ar
from repro.toolchain.drivers import CompilerDriver, CompilerError
from repro.vfs import Directory, RegularFile, Symlink
from repro.vfs import paths as vpath
from repro.vfs.errors import VfsError

ProgramFn = Callable[[ProcessContext], int]

_REGISTRY: Dict[str, ProgramFn] = {}


def register_program(name: str, fn: ProgramFn) -> None:
    _REGISTRY[name] = fn


def program(name: str) -> Callable[[ProgramFn], ProgramFn]:
    def deco(fn: ProgramFn) -> ProgramFn:
        register_program(name, fn)
        return fn
    return deco


def get_program(name: str) -> ProgramFn:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ProgramError(f"{name}: no such simulated program") from None


def has_program(name: str) -> bool:
    return name in _REGISTRY


# ---------------------------------------------------------------------------
# shells
# ---------------------------------------------------------------------------

@program("sh")
@program("bash")
def _sh(ctx: ProcessContext) -> int:
    from repro.containers.shell import Shell  # local import: cycle

    args = ctx.argv[1:]
    if args and args[0] == "-c":
        script = " ".join(args[1:]) if len(args) > 1 else ""
    elif args:
        path = ctx.resolve(args[0])
        if not ctx.fs.exists(path):
            raise ProgramError(f"sh: {args[0]}: No such file or directory")
        script = ctx.fs.read_text(path)
    else:
        return 0
    shell = Shell(ctx.engine, ctx.container)
    result = shell.run_script(script, env=dict(ctx.env), cwd=ctx.cwd)
    ctx.write(result.stdout)
    if result.stderr:
        raise ProgramError(result.stderr)
    return result.exit_code


# ---------------------------------------------------------------------------
# coreutils
# ---------------------------------------------------------------------------

@program("true")
def _true(ctx: ProcessContext) -> int:
    return 0


@program("echo")
def _echo(ctx: ProcessContext) -> int:
    args = ctx.argv[1:]
    newline = True
    if args and args[0] == "-n":
        newline = False
        args = args[1:]
    ctx.write(" ".join(args) + ("\n" if newline else ""))
    return 0


@program("cat")
def _cat(ctx: ProcessContext) -> int:
    for name in ctx.argv[1:]:
        path = ctx.resolve(name)
        if not ctx.fs.exists(path):
            raise ProgramError(f"cat: {name}: No such file or directory")
        ctx.write(ctx.fs.read_file(path).decode("utf-8", errors="replace"))
    return 0


@program("env")
def _env(ctx: ProcessContext) -> int:
    for key in sorted(ctx.env):
        ctx.writeline(f"{key}={ctx.env[key]}")
    return 0


@program("mkdir")
def _mkdir(ctx: ProcessContext) -> int:
    parents = False
    targets: List[str] = []
    for arg in ctx.argv[1:]:
        if arg in ("-p", "--parents"):
            parents = True
        elif arg.startswith("-"):
            continue
        else:
            targets.append(arg)
    if not targets:
        raise ProgramError("mkdir: missing operand")
    for target in targets:
        path = ctx.resolve(target)
        try:
            if parents:
                ctx.fs.makedirs(path)
            else:
                ctx.fs.mkdir(path)
        except VfsError as exc:
            raise ProgramError(f"mkdir: cannot create directory '{target}': {exc}")
    return 0


@program("touch")
def _touch(ctx: ProcessContext) -> int:
    for name in ctx.argv[1:]:
        path = ctx.resolve(name)
        if not ctx.fs.exists(path):
            ctx.fs.write_file(path, b"", create_parents=True)
    return 0


@program("rm")
def _rm(ctx: ProcessContext) -> int:
    recursive = force = False
    targets: List[str] = []
    for arg in ctx.argv[1:]:
        if arg.startswith("-") and len(arg) > 1 and not arg.startswith("--"):
            recursive |= "r" in arg or "R" in arg
            force |= "f" in arg
        elif arg in ("--recursive",):
            recursive = True
        elif arg in ("--force",):
            force = True
        else:
            targets.append(arg)
    for target in targets:
        path = ctx.resolve(target)
        try:
            ctx.fs.remove(path, recursive=recursive, missing_ok=force)
        except VfsError as exc:
            raise ProgramError(f"rm: cannot remove '{target}': {exc}")
    return 0


def _copy_one(ctx: ProcessContext, src: str, dst: str, recursive: bool) -> None:
    src_path = ctx.resolve(src)
    dst_path = ctx.resolve(dst)
    node = ctx.fs.try_get_node(src_path, follow_symlinks=False)
    if node is None:
        raise ProgramError(f"cp: cannot stat '{src}': No such file or directory")
    if isinstance(node, Directory) and not recursive:
        raise ProgramError(f"cp: -r not specified; omitting directory '{src}'")
    if ctx.fs.is_dir(dst_path):
        dst_path = vpath.join(dst_path, vpath.basename(src_path))
    ctx.fs.copy_tree(src_path, dst_path)


@program("cp")
def _cp(ctx: ProcessContext) -> int:
    recursive = False
    operands: List[str] = []
    for arg in ctx.argv[1:]:
        if arg.startswith("-") and len(arg) > 1:
            if any(c in arg for c in "rRa"):
                recursive = True
        else:
            operands.append(arg)
    if len(operands) < 2:
        raise ProgramError("cp: missing file operand")
    *sources, dst = operands
    if len(sources) > 1 and not ctx.fs.is_dir(ctx.resolve(dst)):
        raise ProgramError(f"cp: target '{dst}' is not a directory")
    for src in sources:
        _copy_one(ctx, src, dst, recursive)
    return 0


@program("mv")
def _mv(ctx: ProcessContext) -> int:
    operands = [a for a in ctx.argv[1:] if not a.startswith("-")]
    if len(operands) < 2:
        raise ProgramError("mv: missing file operand")
    *sources, dst = operands
    dst_path = ctx.resolve(dst)
    for src in sources:
        src_path = ctx.resolve(src)
        if not ctx.fs.lexists(src_path):
            raise ProgramError(f"mv: cannot stat '{src}': No such file or directory")
        target = dst_path
        if ctx.fs.is_dir(dst_path):
            target = vpath.join(dst_path, vpath.basename(src_path))
        ctx.fs.rename(src_path, target)
    return 0


@program("ln")
def _ln(ctx: ProcessContext) -> int:
    symbolic = force = False
    operands: List[str] = []
    for arg in ctx.argv[1:]:
        if arg.startswith("-") and len(arg) > 1:
            symbolic |= "s" in arg
            force |= "f" in arg
        else:
            operands.append(arg)
    if not symbolic:
        raise ProgramError("ln: only symbolic links are supported (use -s)")
    if len(operands) != 2:
        raise ProgramError("ln: expected TARGET LINK_NAME")
    target, linkname = operands
    link_path = ctx.resolve(linkname)
    if ctx.fs.is_dir(link_path):
        link_path = vpath.join(link_path, vpath.basename(target))
    if force:
        ctx.fs.remove(link_path, recursive=False, missing_ok=True)
    ctx.fs.symlink(target, link_path, create_parents=True)
    return 0


@program("chmod")
def _chmod(ctx: ProcessContext) -> int:
    operands = [a for a in ctx.argv[1:] if not a.startswith("-")]
    if len(operands) < 2:
        raise ProgramError("chmod: missing operand")
    mode_text, *targets = operands
    try:
        mode = int(mode_text, 8)
    except ValueError:
        mode = 0o755 if "x" in mode_text else 0o644
    for target in targets:
        path = ctx.resolve(target)
        if not ctx.fs.exists(path):
            raise ProgramError(f"chmod: cannot access '{target}': No such file or directory")
        ctx.fs.chmod(path, mode)
    return 0


@program("install")
def _install(ctx: ProcessContext) -> int:
    args = ctx.argv[1:]
    mode = 0o755
    make_dirs = False
    operands: List[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "-d":
            make_dirs = True
        elif arg == "-m":
            mode = int(args[i + 1], 8)
            i += 1
        elif arg.startswith("-m"):
            mode = int(arg[2:], 8)
        elif not arg.startswith("-"):
            operands.append(arg)
        i += 1
    if make_dirs:
        for operand in operands:
            ctx.fs.makedirs(ctx.resolve(operand))
        return 0
    if len(operands) < 2:
        raise ProgramError("install: missing destination")
    *sources, dst = operands
    for src in sources:
        _copy_one(ctx, src, dst, recursive=False)
        dst_path = ctx.resolve(dst)
        if ctx.fs.is_dir(dst_path):
            dst_path = vpath.join(dst_path, vpath.basename(src))
        ctx.fs.chmod(dst_path, mode)
    return 0


@program("tar")
def _tar(ctx: ProcessContext) -> int:
    """Minimal tar: ``-cf``/``-czf`` create, ``-xf``/``-xzf`` extract, ``-tf`` list.

    Archives are real POSIX tar bytes (via the layer tar codec), so they
    interoperate with anything else that reads the virtual filesystem.
    """
    from repro.oci.diff import layer_from_tree
    from repro.oci.layer import Layer, LayerEntry
    from repro.oci.apply import apply_layer
    from repro.vfs import VirtualFilesystem

    args = ctx.argv[1:]
    if not args:
        raise ProgramError("tar: you must specify one of -c, -x, -t")
    flags = args[0].lstrip("-")
    rest = args[1:]
    directory = ctx.cwd
    if "-C" in rest:
        i = rest.index("-C")
        directory = ctx.resolve(rest[i + 1])
        rest = rest[:i] + rest[i + 2:]
    if "f" not in flags or not rest:
        raise ProgramError("tar: archive file must be given with -f")
    archive, *members = rest
    archive_path = ctx.resolve(archive)

    if "c" in flags:
        staging = VirtualFilesystem()
        for member in members:
            src = vpath.join(directory, member)
            if not ctx.fs.lexists(src):
                raise ProgramError(f"tar: {member}: Cannot stat: No such file or directory")
            staging.copy_tree(src, "/" + member.lstrip("/"), source_fs=ctx.fs)
        layer = layer_from_tree(staging)
        ctx.fs.write_file(archive_path, layer.to_tar_bytes(), create_parents=True)
        return 0
    if not ctx.fs.exists(archive_path):
        raise ProgramError(f"tar: {archive}: Cannot open: No such file or directory")
    layer = Layer.from_tar_bytes(ctx.fs.read_file(archive_path))
    if "t" in flags:
        for entry in layer.entries:
            ctx.writeline(entry.path.lstrip("/"))
        return 0
    if "x" in flags:
        rebased = Layer(
            entries=[
                LayerEntry.from_json({
                    **e.to_json(),
                    "path": vpath.join(directory, e.path.lstrip("/")),
                })
                for e in layer.entries
            ]
        )
        apply_layer(ctx.fs, rebased)
        return 0
    raise ProgramError(f"tar: unsupported flags {flags!r}")


# ---------------------------------------------------------------------------
# package management
# ---------------------------------------------------------------------------

def _apt_facade(ctx: ProcessContext) -> AptFacade:
    pool = ctx.engine.repository_pool_for(ctx.container)
    try:
        return AptFacade(ctx.fs, pool)
    except DpkgStatusError as exc:
        raise ProgramError(f"apt-get: {exc}")


@program("apt-get")
@program("apt")
def _apt_get(ctx: ProcessContext) -> int:
    args = [a for a in ctx.argv[1:] if a not in ("-y", "-q", "-qq", "--yes",
                                                 "--no-install-recommends")]
    if not args:
        raise ProgramError("apt-get: missing command")
    command, *rest = args
    if command == "update":
        ctx.writeline("Reading package lists... Done")
        return 0
    if command in ("install", "reinstall"):
        facade = _apt_facade(ctx)
        try:
            added = facade.install(rest)
        except Exception as exc:
            raise ProgramError(f"apt-get: {exc}")
        ctx.writeline(f"{len(added)} newly installed.")
        return 0
    if command in ("remove", "purge"):
        facade = _apt_facade(ctx)
        for name in rest:
            facade.remove(name)
        return 0
    if command in ("clean", "autoclean", "autoremove"):
        return 0
    raise ProgramError(f"apt-get: unknown command {command!r}")


@program("dpkg-query")
@program("dpkg")
def _dpkg(ctx: ProcessContext) -> int:
    try:
        db = DpkgDatabase.read_from(ctx.fs)
    except DpkgStatusError as exc:
        raise ProgramError(f"dpkg: error: {exc}")
    args = ctx.argv[1:]
    if not args:
        raise ProgramError("dpkg: need an action option")
    if args[0] in ("-l", "--list"):
        for name in db.names():
            pkg = db.get(name)
            ctx.writeline(f"ii  {pkg.name}  {pkg.version}  {pkg.architecture}")
        return 0
    if args[0] in ("-S", "--search") and len(args) > 1:
        owner = db.owner_of(args[1])
        if owner is None:
            raise ProgramError(f"dpkg-query: no path found matching pattern {args[1]}")
        ctx.writeline(f"{owner}: {args[1]}")
        return 0
    if args[0] in ("-L", "--listfiles") and len(args) > 1:
        if args[1] not in db:
            raise ProgramError(f"dpkg-query: package '{args[1]}' is not installed")
        for path in db.file_list(args[1]):
            ctx.writeline(path)
        return 0
    raise ProgramError(f"dpkg: unsupported action {args[0]!r}")


# ---------------------------------------------------------------------------
# toolchain entry points
# ---------------------------------------------------------------------------

@program("compiler-driver")
def _compiler_driver(ctx: ProcessContext) -> int:
    meta = ctx.meta
    driver = CompilerDriver(
        toolchain_id=meta.get("toolchain", "gnu-12"),
        role=meta.get("role", "cc"),
        isa=ctx.isa,
        mpi_wrapper=bool(meta.get("mpi_wrapper", False)),
    )
    try:
        result = driver.execute(ctx.argv, ctx.fs, cwd=ctx.cwd, env=ctx.env)
    except CompilerError as exc:
        raise ProgramError(str(exc))
    if result.stdout:
        ctx.write(result.stdout if result.stdout.endswith("\n") else result.stdout + "\n")
    return 0


@program("ar")
def _ar(ctx: ProcessContext) -> int:
    try:
        out = run_ar(ctx.argv, ctx.fs, cwd=ctx.cwd)
    except ArchiverError as exc:
        raise ProgramError(str(exc))
    ctx.write(out)
    return 0


@program("ranlib")
@program("strip")
def _noop_tool(ctx: ProcessContext) -> int:
    return 0


@program("ld")
def _ld(ctx: ProcessContext) -> int:
    driver = CompilerDriver(
        toolchain_id=ctx.meta.get("toolchain", "gnu-12"), role="ld", isa=ctx.isa
    )
    try:
        driver.execute(ctx.argv, ctx.fs, cwd=ctx.cwd, env=ctx.env)
    except CompilerError as exc:
        raise ProgramError(str(exc))
    return 0


@program("make")
def _make(ctx: ProcessContext) -> int:
    raise ProgramError(
        "make: the simulation substrate uses explicit build scripts; "
        "invoke the compiler commands directly"
    )


# ---------------------------------------------------------------------------
# MPI launcher
# ---------------------------------------------------------------------------

@program("mpirun")
def _mpirun(ctx: ProcessContext) -> int:
    args = ctx.argv[1:]
    nprocs = 1
    program_argv: List[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg in ("-np", "-n", "--np"):
            if i + 1 >= len(args):
                raise ProgramError(f"mpirun: {arg} requires an argument")
            try:
                nprocs = int(args[i + 1])
            except ValueError:
                raise ProgramError(f"mpirun: invalid process count {args[i + 1]!r}")
            i += 2
            continue
        if arg in ("--hostfile", "-hostfile", "--host"):
            i += 2
            continue
        program_argv = args[i:]
        break
    if not program_argv:
        raise ProgramError("mpirun: no executable specified")
    env = dict(ctx.env)
    env["SIM_NPROCS"] = str(nprocs)
    env["SIM_MPI"] = str(ctx.meta.get("mpi", "openmpi-generic"))
    env["SIM_MPI_HSN"] = "1" if ctx.meta.get("hsn") else "0"
    result = ctx.engine.exec_in(ctx.container, program_argv, env=env, cwd=ctx.cwd)
    ctx.write(result.stdout)
    if result.exit_code != 0:
        raise ProgramError(result.stderr or "mpirun: child failed")
    return 0
