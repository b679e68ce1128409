"""GCC-style command-line parsing into structured compilation models.

:func:`parse_command_line` turns a raw argv (as captured by the command
hijacker) into a :class:`CompilerInvocation` — the structured
"compilation model" of the paper's §4.3: inputs classified by kind,
pipeline mode, optimization level, the ``-f``/``-m``/``-W`` families as
dictionaries, preprocessor and linker state, and LTO/PGO controls exposed
as first-class properties.  :meth:`CompilerInvocation.render` regenerates
an equivalent argv, which is how the system-side backend re-executes
transformed compilations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.toolchain import options as opt

_SOURCE_SUFFIXES = {
    "c": ("c", "i"),
    "c++": ("cc", "cpp", "cxx", "c++", "C", "ii"),
    "fortran": ("f", "for", "ftn", "f77", "f90", "f95", "f03", "f08",
                "F", "FOR", "F77", "F90", "F95", "F03", "F08"),
    "assembler": ("s", "S", "sx"),
}

MODE_PREPROCESS = "preprocess"
MODE_ASSEMBLE = "assemble"
MODE_COMPILE = "compile"
MODE_LINK = "link"
MODE_INFO = "info"

FlagValue = Union[bool, str]


def classify_source(path: str) -> Optional[str]:
    """Language of a source input by suffix, or None for non-sources."""
    suffix = path.rsplit(".", 1)[-1] if "." in path else ""
    for language, suffixes in _SOURCE_SUFFIXES.items():
        if suffix in suffixes:
            return language
    return None


def input_kind(path: str) -> str:
    """Classify an input path: source / object / archive / shared / other."""
    if classify_source(path) is not None:
        return "source"
    name = path.rsplit("/", 1)[-1]
    if name.endswith(".o"):
        return "object"
    if name.endswith(".a"):
        return "archive"
    if ".so" in name and (name.endswith(".so") or name.split(".so", 1)[1].lstrip(".").replace(".", "").isdigit()):
        return "shared"
    return "other"


@dataclass
class CompilerInvocation:
    """A parsed compiler command line (one node-producing build step)."""

    program: str = "gcc"
    mode: str = MODE_LINK
    sources: List[str] = field(default_factory=list)
    objects: List[str] = field(default_factory=list)
    archives: List[str] = field(default_factory=list)
    shared_inputs: List[str] = field(default_factory=list)
    other_inputs: List[str] = field(default_factory=list)
    output: Optional[str] = None
    opt_level: Optional[str] = None         # "0".."3", "s", "fast", "g", "z"
    std: Optional[str] = None
    language_override: Optional[str] = None
    defines: List[str] = field(default_factory=list)
    undefines: List[str] = field(default_factory=list)
    include_dirs: List[str] = field(default_factory=list)
    isystem_dirs: List[str] = field(default_factory=list)
    fflags: Dict[str, FlagValue] = field(default_factory=dict)
    mflags: Dict[str, FlagValue] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)
    debug: Optional[str] = None
    libs: List[str] = field(default_factory=list)
    lib_dirs: List[str] = field(default_factory=list)
    linker_args: List[str] = field(default_factory=list)
    shared: bool = False
    static: bool = False
    pthread: bool = False
    extra: List[str] = field(default_factory=list)
    raw: List[str] = field(default_factory=list)

    # -- derived views -------------------------------------------------------

    @property
    def inputs(self) -> List[str]:
        return (
            self.sources + self.objects + self.archives
            + self.shared_inputs + self.other_inputs
        )

    @property
    def language(self) -> Optional[str]:
        if self.language_override:
            return self.language_override
        for source in self.sources:
            lang = classify_source(source)
            if lang is not None:
                return lang
        return None

    @property
    def march(self) -> Optional[str]:
        value = self.mflags.get("arch")
        return value if isinstance(value, str) else None

    @property
    def mtune(self) -> Optional[str]:
        value = self.mflags.get("tune")
        return value if isinstance(value, str) else None

    @property
    def lto(self) -> bool:
        value = self.fflags.get("lto")
        return bool(value)

    @property
    def profile_generate(self) -> bool:
        return bool(self.fflags.get("profile-generate"))

    @property
    def profile_use(self) -> bool:
        return bool(self.fflags.get("profile-use"))

    @property
    def openmp(self) -> bool:
        return bool(self.fflags.get("openmp"))

    def effective_output(self) -> str:
        """The output path, applying GCC defaulting rules."""
        if self.output:
            return self.output
        if self.mode == MODE_COMPILE and self.sources:
            stem = self.sources[0].rsplit("/", 1)[-1].rsplit(".", 1)[0]
            return stem + ".o"
        if self.mode == MODE_ASSEMBLE and self.sources:
            stem = self.sources[0].rsplit("/", 1)[-1].rsplit(".", 1)[0]
            return stem + ".s"
        if self.mode == MODE_PREPROCESS:
            return "-"  # stdout
        return "a.out"

    def isa_specific_args(self) -> List[str]:
        """Arguments pinning this compilation to one ISA (Figure 11 input)."""
        found: List[str] = []
        for name, value in self.mflags.items():
            arg = f"-m{name}" + (f"={value}" if isinstance(value, str) else "")
            if isinstance(value, bool) and not value:
                arg = f"-mno-{name}"
            if opt.is_isa_specific(arg) is not None:
                found.append(arg)
        return found

    # -- transformation helpers (used by system adapters) ----------------------

    def set_fflag(self, name: str, value: FlagValue = True) -> "CompilerInvocation":
        self.fflags[name] = value
        return self

    def set_mflag(self, name: str, value: FlagValue = True) -> "CompilerInvocation":
        self.mflags[name] = value
        return self

    def clone(self) -> "CompilerInvocation":
        return parse_command_line(self.render())

    # -- rendering --------------------------------------------------------------

    def render(self) -> List[str]:
        """Regenerate an equivalent argv (canonical ordering)."""
        argv: List[str] = [self.program]
        if self.mode == MODE_PREPROCESS:
            argv.append("-E")
        elif self.mode == MODE_ASSEMBLE:
            argv.append("-S")
        elif self.mode == MODE_COMPILE:
            argv.append("-c")
        elif self.mode == MODE_INFO:
            argv.append("--version")
        if self.std:
            argv.append(f"-std={self.std}")
        if self.opt_level is not None:
            argv.append(f"-O{self.opt_level}")
        if self.debug:
            argv.append(self.debug)
        for name, value in self.fflags.items():
            if value is True:
                argv.append(f"-f{name}")
            elif value is False:
                argv.append(f"-fno-{name}")
            else:
                argv.append(f"-f{name}={value}")
        for name, value in self.mflags.items():
            if value is True:
                argv.append(f"-m{name}")
            elif value is False:
                argv.append(f"-mno-{name}")
            else:
                argv.append(f"-m{name}={value}")
        argv.extend(self.warnings)
        argv.extend(f"-D{define}" for define in self.defines)
        argv.extend(f"-U{undefine}" for undefine in self.undefines)
        argv.extend(f"-I{directory}" for directory in self.include_dirs)
        for directory in self.isystem_dirs:
            argv.extend(["-isystem", directory])
        if self.pthread:
            argv.append("-pthread")
        if self.shared:
            argv.append("-shared")
        if self.static:
            argv.append("-static")
        if self.language_override:
            argv.extend(["-x", self.language_override])
        argv.extend(self.sources)
        argv.extend(self.objects)
        argv.extend(self.archives)
        argv.extend(self.shared_inputs)
        argv.extend(self.other_inputs)
        argv.extend(f"-L{directory}" for directory in self.lib_dirs)
        argv.extend(f"-l{lib}" for lib in self.libs)
        if self.linker_args:
            argv.append("-Wl," + ",".join(self.linker_args))
        argv.extend(self.extra)
        if self.output:
            argv.extend(["-o", self.output])
        return argv

    def to_json(self) -> dict:
        return {
            "program": self.program,
            "argv": self.render(),
        }

    @staticmethod
    def from_json(obj: dict) -> "CompilerInvocation":
        return parse_command_line(obj["argv"])


def _split_fm_token(token: str, prefix: str) -> (str, FlagValue):
    """``-fno-inline`` -> ("inline", False); ``-march=native`` -> ("arch", "native")."""
    body = token[len(prefix):]
    if "=" in body:
        name, _, value = body.partition("=")
        return name, value
    if body.startswith("no-"):
        return body[3:], False
    return body, True


def parse_command_line(
    argv: List[str],
    read_file: Optional[Callable[[str], str]] = None,
) -> CompilerInvocation:
    """Parse a compiler argv (``argv[0]`` is the program name).

    *read_file* resolves ``@file`` response files when provided.
    """
    if not argv:
        raise ValueError("empty argv")
    inv = CompilerInvocation(program=argv[0], raw=list(argv))
    args: List[str] = []
    for token in argv[1:]:
        if token.startswith("@") and read_file is not None:
            args.extend(read_file(token[1:]).split())
        else:
            args.append(token)

    explicit_mode: Optional[str] = None
    i = 0
    while i < len(args):
        arg = args[i]
        i += 1
        if not arg.startswith("-") or arg == "-":
            kind = input_kind(arg)
            if kind == "source":
                inv.sources.append(arg)
            elif kind == "object":
                inv.objects.append(arg)
            elif kind == "archive":
                inv.archives.append(arg)
            elif kind == "shared":
                inv.shared_inputs.append(arg)
            else:
                inv.other_inputs.append(arg)
            continue

        # Mode flags.
        if arg == "-E":
            explicit_mode = MODE_PREPROCESS
            continue
        if arg == "-S":
            explicit_mode = MODE_ASSEMBLE
            continue
        if arg == "-c":
            explicit_mode = MODE_COMPILE
            continue
        if arg in ("--version", "--help", "-###", "-dumpversion", "-dumpmachine"):
            explicit_mode = MODE_INFO
            continue

        # Output / language.
        if arg == "-o":
            inv.output = args[i] if i < len(args) else None
            i += 1
            continue
        if arg.startswith("-o") and len(arg) > 2 and not arg.startswith("-openmp"):
            inv.output = arg[2:]
            continue
        if arg == "-x":
            inv.language_override = args[i] if i < len(args) else None
            i += 1
            continue

        # Optimization level.
        if arg.startswith("-O"):
            inv.opt_level = arg[2:] or "1"
            continue
        if arg.startswith("-std="):
            inv.std = arg[len("-std="):]
            continue

        # Preprocessor.
        if arg.startswith("-D"):
            inv.defines.append(arg[2:] if len(arg) > 2 else args[i]); i += len(arg) == 2
            continue
        if arg.startswith("-U"):
            inv.undefines.append(arg[2:] if len(arg) > 2 else args[i]); i += len(arg) == 2
            continue
        if arg.startswith("-I"):
            inv.include_dirs.append(arg[2:] if len(arg) > 2 else args[i]); i += len(arg) == 2
            continue
        if arg == "-isystem":
            inv.isystem_dirs.append(args[i]); i += 1
            continue

        # Linker.
        if arg.startswith("-L"):
            inv.lib_dirs.append(arg[2:] if len(arg) > 2 else args[i]); i += len(arg) == 2
            continue
        if arg.startswith("-l"):
            inv.libs.append(arg[2:] if len(arg) > 2 else args[i]); i += len(arg) == 2
            continue
        if arg == "-shared":
            inv.shared = True
            continue
        if arg == "-static":
            inv.static = True
            continue
        if arg == "-pthread":
            inv.pthread = True
            continue
        if arg.startswith("-Wl,"):
            inv.linker_args.extend(arg[4:].split(","))
            continue
        if arg == "-Xlinker":
            inv.linker_args.append(args[i]); i += 1
            continue

        # Debug.
        if arg == "-g" or (arg.startswith("-g") and not arg.startswith("-gn")
                           and opt.classify_option(arg) is not None
                           and opt.classify_option(arg).name == "-g"):
            inv.debug = arg
            continue

        # Warnings (but not -Wl/-Wa/-Wp handled above).
        if arg.startswith("-W") and not arg.startswith(("-Wl,", "-Wa,", "-Wp,")):
            inv.warnings.append(arg)
            continue

        # -f / -m families.
        if arg.startswith("-f"):
            name, value = _split_fm_token(arg, "-f")
            inv.fflags[name] = value
            continue
        if arg.startswith("-m"):
            name, value = _split_fm_token(arg, "-m")
            inv.mflags[name] = value
            continue

        # Known separate-argument options we don't model structurally.
        spec = opt.classify_option(arg)
        if spec is not None and spec.style == opt.SEPARATE and i < len(args):
            inv.extra.extend([arg, args[i]])
            i += 1
            continue
        inv.extra.append(arg)

    if explicit_mode is not None:
        inv.mode = explicit_mode
    elif inv.inputs:
        inv.mode = MODE_LINK
    else:
        inv.mode = MODE_INFO
    return inv
