"""The line-based parser for every virtual target's textual machine IR.

Grammar (one construct per line; ``;`` starts a comment):

.. code-block:: text

    <function-name>:
    frame <object-name>, <bytes>          ; optional frame declarations
    .LBB0:                                ; block labels
      %vr8_32 = COPY <register>           ; instructions
      %vr1_32 = load [b + 4]              ; width from the destination
      store [b + 2], %vr1_16              ; width from the source register
      store16 [b + 3], 2                  ; explicit width for immediates
      %vr5_64 = <address-of> [stack.foo.x]
      call @callee, <register>, ...       ; the callee is always a label
      ret

Memory operands are ``[object]``, ``[object + disp]``, ``[reg]``,
``[reg + disp]`` or ``[object + reg + disp]``.  A target subclasses
:class:`MachineParser` to say how its physical registers are spelled and
which instruction class and address-of opcode it uses; the rest of the
notation is the same on every target.
"""

from __future__ import annotations

import re

from repro.mir import (
    Imm,
    Label,
    MachineBlock,
    MachineFunction,
    MemRef,
    MInstr,
    PhysReg,
    VReg,
)


class MachineParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_VREG_RE = re.compile(r"%vr(\d+)_(\d+)$")
_INT_RE = re.compile(r"-?\d+$")
_NAME_RE = re.compile(r"[A-Za-z_.$][\w.$]*$")
_LABEL_LINE_RE = re.compile(r"([A-Za-z_.$][\w.$]*):$")
_MEM_RE = re.compile(r"\[([^\]]*)\]$")


class _RawImm:
    """An immediate whose width is resolved from instruction context."""

    def __init__(self, value: int):
        self.value = value


def _split_operands(text: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    current = ""
    for char in text:
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        if char == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += char
    if current.strip():
        parts.append(current)
    return [part.strip() for part in parts]


class MachineParser:
    """Parses one target's textual machine functions.

    A subclass names the target's vocabulary: ``MINSTR``, the instruction
    class (its ``OPCODES`` and ``BRANCHES`` tables drive validation and
    the label checks), and ``LEA``, the address-of opcode (its memory
    operand is a full 8-byte pointer).  It spells physical registers in
    :meth:`parse_physical`.
    """

    MINSTR: type[MInstr] = MInstr
    LEA = "lea"

    def parse_physical(self, text: str) -> PhysReg | None:
        """The physical register ``text`` spells, or ``None``."""
        raise NotImplementedError

    def parse_function(self, text: str) -> MachineFunction:
        function: MachineFunction | None = None
        current: MachineBlock | None = None
        for line_number, raw_line in enumerate(text.splitlines(), start=1):
            line = raw_line.split(";")[0].strip()
            if not line:
                continue
            label_match = _LABEL_LINE_RE.match(line)
            if label_match:
                name = label_match.group(1)
                if function is None:
                    function = MachineFunction(name)
                else:
                    current = function.add_block(MachineBlock(name))
                continue
            if function is None:
                raise MachineParseError(
                    "instruction before function label", line_number
                )
            if line.startswith("frame "):
                body = line[len("frame ") :]
                object_name, _, size_text = body.partition(",")
                function.frame_objects[object_name.strip()] = int(size_text)
                continue
            if current is None:
                current = function.add_block(MachineBlock(".LBB0"))
            current.instructions.append(self._parse_instruction(line, line_number))
        if function is None:
            raise MachineParseError("empty machine function", 0)
        return function

    def _parse_register(self, text: str) -> VReg | PhysReg | None:
        match = _VREG_RE.match(text)
        if match:
            return VReg(int(match.group(1)), int(match.group(2)))
        return self.parse_physical(text)

    def _parse_operand(self, text: str, line: int):
        text = text.strip()
        register = self._parse_register(text)
        if register is not None:
            return register
        if _INT_RE.match(text):
            return _RawImm(int(text))
        mem_match = _MEM_RE.match(text)
        if mem_match:
            return self._parse_memref(mem_match.group(1), line)
        if text.startswith("@"):
            return Label(text[1:])
        if _NAME_RE.match(text):
            return Label(text)
        raise MachineParseError(f"cannot parse operand {text!r}", line)

    def _parse_memref(self, inner: str, line: int) -> MemRef:
        object_name: str | None = None
        base = None
        disp = 0
        # Normalize "a - 4" to "a + -4" before splitting.
        inner = inner.replace("-", "+ -").replace("+ +", "+")
        for part in inner.split("+"):
            part = part.strip()
            if not part:
                continue
            register = self._parse_register(part)
            if register is not None:
                if base is not None:
                    raise MachineParseError(
                        "two base registers in memory operand", line
                    )
                base = register
                continue
            if _INT_RE.match(part):
                disp += int(part)
                continue
            if _NAME_RE.match(part):
                if object_name is not None:
                    raise MachineParseError("two objects in memory operand", line)
                object_name = part
                continue
            raise MachineParseError(f"bad memory operand component {part!r}", line)
        # width_bytes is patched in by the instruction that owns the operand.
        return MemRef(width_bytes=0, object=object_name, base=base, disp=disp)

    def _resolve_widths(
        self, opcode: str, result, operands: list, explicit_bytes: int | None, line: int
    ) -> list:
        """Resolve raw immediates and memory widths from context."""
        resolved = list(operands)

        def width_from_registers() -> int | None:
            if result is not None:
                return result.width
            for operand in resolved:
                if isinstance(operand, (VReg, PhysReg)):
                    return operand.width
            return None

        context_width = width_from_registers()
        for index, operand in enumerate(resolved):
            if isinstance(operand, _RawImm):
                width = context_width
                if explicit_bytes is not None:
                    width = explicit_bytes * 8
                if width is None:
                    raise MachineParseError(
                        f"cannot infer immediate width in {opcode}", line
                    )
                resolved[index] = Imm(operand.value, width)
            elif isinstance(operand, MemRef) and operand.width_bytes == 0:
                if explicit_bytes is not None:
                    bytes_ = explicit_bytes
                elif opcode == self.LEA:
                    bytes_ = 8
                elif context_width is not None:
                    bytes_ = context_width // 8
                else:
                    raise MachineParseError(
                        f"cannot infer access width in {opcode}", line
                    )
                resolved[index] = MemRef(
                    width_bytes=bytes_,
                    object=operand.object,
                    base=operand.base,
                    disp=operand.disp,
                )
        return resolved

    def _parse_instruction(self, line: str, line_number: int) -> MInstr:
        result = None
        if "=" in line.split("[")[0]:  # '=' before any memory bracket
            left, _, rest = line.partition("=")
            result = self._parse_register(left.strip())
            if result is None:
                raise MachineParseError(
                    f"bad result register {left.strip()!r}", line_number
                )
            line = rest.strip()
        mnemonic, _, operand_text = line.partition(" ")
        mnemonic = mnemonic.strip()
        explicit_bytes: int | None = None
        width_match = re.match(r"(load|store)(8|16|32|64)$", mnemonic)
        if width_match:
            mnemonic = width_match.group(1)
            explicit_bytes = int(width_match.group(2)) // 8
        parts = _split_operands(operand_text)
        operands = [self._parse_operand(part, line_number) for part in parts]
        if mnemonic == "call" and parts and _NAME_RE.match(parts[0]):
            # The printer drops a callee's '@', so a callee named like a
            # register (@r8, @t0) reads back as a label only here.
            operands[0] = Label(parts[0])
        label = 0 if mnemonic == "call" else self.MINSTR.BRANCHES.get(mnemonic)
        if label is not None and (
            len(operands) <= label
            or not isinstance(operands[label], Label)
            # a fused compare-and-branch ends with its label
            or (label > 0 and len(operands) != label + 1)
        ):
            raise MachineParseError(f"{mnemonic} needs a label target", line_number)
        operands = self._resolve_widths(
            mnemonic, result, operands, explicit_bytes, line_number
        )
        try:
            return self.MINSTR(mnemonic, tuple(operands), result)
        except ValueError as error:
            raise MachineParseError(str(error), line_number) from error
