//! Line-based parser for the gas-like assembly syntax of the paper.

use parsecs_isa::{
    AluOp, Cond, Inst, MemRef, Operand, Program, ProgramBuilder, Reg, Target, UnaryOp,
};

use crate::AsmError;

/// Assembles gas-syntax source text into a resolved [`Program`].
///
/// Supported syntax, matching the paper's listings:
///
/// * labels: `sum:` or `.L1:`, optionally followed by an instruction on the
///   same line;
/// * data: `name: .quad v1, v2, …` and `name: .zero n` (n 64-bit words);
/// * comments: `#` or `//` to end of line;
/// * instructions: `movq`, `leaq`, `pushq`, `popq`, `addq`, `subq`, `andq`,
///   `orq`, `xorq`, `shlq`, `shrq`, `sarq`, `imulq`, `negq`, `notq`,
///   `incq`, `decq`, `cmpq`, `testq`, `jmp`, `j<cc>`, `call`, `ret`,
///   `fork`, `endfork`, `out`, `nop`, `halt`;
/// * one-operand shift forms (`shrq %rsi`) shift by one, as in Figure 2;
/// * operands: `$imm`, `$symbol`, `%reg`, `disp(%base,%index,scale)` and
///   bare labels for control-flow targets.
///
/// The program entry point is the `main` label when present, otherwise the
/// first instruction.
///
/// # Errors
///
/// Returns [`AsmError::Syntax`] with a line number for lexical/syntactic
/// problems and [`AsmError::Isa`] for structural problems (undefined
/// labels, invalid operand combinations, …).
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    let mut builder = ProgramBuilder::new();
    let mut pending_data_label: Option<String> = None;

    for (idx, raw_line) in source.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        let mut rest = line;

        // Leading `label:` definitions (possibly several on one line).
        while let Some(colon) = find_label_colon(rest) {
            let (label, tail) = rest.split_at(colon);
            let label = label.trim();
            if !is_identifier(label) {
                return Err(AsmError::syntax(
                    line_no,
                    format!("invalid label name `{label}`"),
                ));
            }
            rest = tail[1..].trim();
            if rest.starts_with(".quad") || rest.starts_with(".zero") {
                pending_data_label = Some(label.to_string());
            } else {
                builder.label(label);
                pending_data_label = None;
            }
            if rest.is_empty() {
                break;
            }
            // Only treat further text as another label if it also ends with
            // a colon before any whitespace-separated mnemonic; otherwise it
            // is the instruction.
            if find_label_colon(rest).is_none() {
                break;
            }
        }
        if rest.is_empty() {
            continue;
        }

        if let Some(args) = rest.strip_prefix(".quad") {
            let label = pending_data_label.take().ok_or_else(|| {
                AsmError::syntax(line_no, ".quad directive without a preceding label")
            })?;
            let words = parse_quad_list(args, line_no)?;
            builder.global_data(label, &words);
            continue;
        }
        if let Some(args) = rest.strip_prefix(".zero") {
            let label = pending_data_label.take().ok_or_else(|| {
                AsmError::syntax(line_no, ".zero directive without a preceding label")
            })?;
            let count: usize = args
                .trim()
                .parse()
                .map_err(|_| AsmError::syntax(line_no, "invalid .zero count"))?;
            builder.global_zeroed(label, count);
            continue;
        }
        if rest.starts_with(".global") || rest.starts_with(".text") || rest.starts_with(".data") {
            // Accepted and ignored: the parsecs program model does not need
            // explicit sections.
            continue;
        }
        if rest.starts_with('.') && !rest.starts_with(".L") {
            return Err(AsmError::syntax(
                line_no,
                format!("unknown directive `{rest}`"),
            ));
        }

        let inst = parse_instruction(rest, line_no)?;
        builder.push(inst);
    }

    builder.build().map_err(AsmError::from)
}

fn strip_comment(line: &str) -> &str {
    let cut = line.find('#').unwrap_or(line.len());
    let cut2 = line.find("//").unwrap_or(line.len());
    &line[..cut.min(cut2)]
}

/// Finds the colon terminating a leading label, ignoring colons inside
/// operands (there are none in this syntax, but be conservative: the label
/// must come before any whitespace).
fn find_label_colon(s: &str) -> Option<usize> {
    let colon = s.find(':')?;
    let head = &s[..colon];
    if head.contains(char::is_whitespace) || head.is_empty() {
        None
    } else {
        Some(colon)
    }
}

fn is_identifier(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '$')
}

fn parse_quad_list(args: &str, line_no: usize) -> Result<Vec<u64>, AsmError> {
    args.split(',')
        .map(|w| {
            let w = w.trim();
            parse_int(w)
                .map(|v| v as u64)
                .ok_or_else(|| AsmError::syntax(line_no, format!("invalid .quad value `{w}`")))
        })
        .collect()
}

fn parse_int(s: &str) -> Option<i64> {
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let value = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
            .ok()
            .or_else(|| u64::from_str_radix(hex, 16).ok().map(|v| v as i64))?
    } else {
        body.parse::<i64>()
            .ok()
            .or_else(|| body.parse::<u64>().ok().map(|v| v as i64))?
    };
    Some(if neg { value.wrapping_neg() } else { value })
}

fn parse_instruction(text: &str, line_no: usize) -> Result<Inst, AsmError> {
    let (mnemonic, args_text) = match text.find(char::is_whitespace) {
        Some(pos) => (&text[..pos], text[pos..].trim()),
        None => (text, ""),
    };
    let args = split_operands(args_text);
    let err = |msg: String| AsmError::syntax(line_no, msg);
    let expect = |n: usize| -> Result<(), AsmError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(err(format!(
                "`{mnemonic}` expects {n} operand(s), found {}",
                args.len()
            )))
        }
    };
    let operand = |i: usize| parse_operand(args[i], line_no);

    let alu = |op: AluOp| -> Result<Inst, AsmError> {
        if args.len() == 1 && matches!(op, AluOp::Shl | AluOp::Shr | AluOp::Sar) {
            // One-operand shift form: shift by one (Figure 2's `shrq %rsi`).
            return Ok(Inst::Alu {
                op,
                src: Operand::Imm(1),
                dst: parse_operand(args[0], line_no)?,
            });
        }
        expect(2)?;
        Ok(Inst::Alu {
            op,
            src: operand(0)?,
            dst: operand(1)?,
        })
    };
    let unary = |op: UnaryOp| -> Result<Inst, AsmError> {
        expect(1)?;
        Ok(Inst::Unary {
            op,
            dst: operand(0)?,
        })
    };
    let target = |i: usize| -> Result<Target, AsmError> {
        let t = args[i];
        if !is_identifier(t) {
            return Err(AsmError::syntax(line_no, format!("invalid target `{t}`")));
        }
        Ok(Target::label(t))
    };

    let inst = match mnemonic {
        "movq" | "mov" => {
            expect(2)?;
            Inst::Mov {
                src: operand(0)?,
                dst: operand(1)?,
            }
        }
        "leaq" | "lea" => {
            expect(2)?;
            let addr = match parse_operand(args[0], line_no)? {
                Operand::Mem(m) => m,
                other => {
                    return Err(err(format!(
                        "leaq source must be a memory reference, found `{other}`"
                    )))
                }
            };
            let dst = match parse_operand(args[1], line_no)? {
                Operand::Reg(r) => r,
                other => {
                    return Err(err(format!(
                        "leaq destination must be a register, found `{other}`"
                    )))
                }
            };
            Inst::Lea { addr, dst }
        }
        "pushq" | "push" => {
            expect(1)?;
            Inst::Push { src: operand(0)? }
        }
        "popq" | "pop" => {
            expect(1)?;
            Inst::Pop { dst: operand(0)? }
        }
        "addq" => alu(AluOp::Add)?,
        "subq" => alu(AluOp::Sub)?,
        "andq" => alu(AluOp::And)?,
        "orq" => alu(AluOp::Or)?,
        "xorq" => alu(AluOp::Xor)?,
        "shlq" => alu(AluOp::Shl)?,
        "shrq" => alu(AluOp::Shr)?,
        "sarq" => alu(AluOp::Sar)?,
        "imulq" => alu(AluOp::Imul)?,
        "negq" => unary(UnaryOp::Neg)?,
        "notq" => unary(UnaryOp::Not)?,
        "incq" => unary(UnaryOp::Inc)?,
        "decq" => unary(UnaryOp::Dec)?,
        "cmpq" | "cmp" => {
            expect(2)?;
            Inst::Cmp {
                src: operand(0)?,
                dst: operand(1)?,
            }
        }
        "testq" | "test" => {
            expect(2)?;
            Inst::Test {
                src: operand(0)?,
                dst: operand(1)?,
            }
        }
        "jmp" => {
            expect(1)?;
            Inst::Jmp { target: target(0)? }
        }
        "call" => {
            expect(1)?;
            Inst::Call { target: target(0)? }
        }
        "fork" => {
            expect(1)?;
            Inst::Fork { target: target(0)? }
        }
        "ret" => {
            expect(0)?;
            Inst::Ret
        }
        "endfork" => {
            expect(0)?;
            Inst::EndFork
        }
        "out" => {
            expect(1)?;
            Inst::Out { src: operand(0)? }
        }
        "nop" => {
            expect(0)?;
            Inst::Nop
        }
        "halt" => {
            expect(0)?;
            Inst::Halt
        }
        other if other.starts_with('j') => {
            let cond: Cond = other[1..]
                .parse()
                .map_err(|_| AsmError::syntax(line_no, format!("unknown mnemonic `{other}`")))?;
            expect(1)?;
            Inst::Jcc {
                cond,
                target: target(0)?,
            }
        }
        other => return Err(err(format!("unknown mnemonic `{other}`"))),
    };
    Ok(inst)
}

/// Splits an operand list on commas, but not inside parentheses (memory
/// references contain commas: `(%rdi,%rsi,8)`).
fn split_operands(s: &str) -> Vec<&str> {
    let s = s.trim();
    if s.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(s[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(s[start..].trim());
    out
}

fn parse_operand(text: &str, line_no: usize) -> Result<Operand, AsmError> {
    let err = |msg: String| AsmError::syntax(line_no, msg);
    if let Some(body) = text.strip_prefix('$') {
        if let Some(v) = parse_int(body) {
            return Ok(Operand::Imm(v));
        }
        if is_identifier(body) {
            return Ok(Operand::Sym(body.to_string()));
        }
        return Err(err(format!("invalid immediate `{text}`")));
    }
    if text.starts_with('%') {
        let reg: Reg = text
            .parse()
            .map_err(|_| err(format!("unknown register `{text}`")))?;
        return Ok(Operand::Reg(reg));
    }
    if text.contains('(') {
        return parse_memref(text, line_no).map(Operand::Mem);
    }
    if let Some(v) = parse_int(text) {
        // A bare integer is an absolute memory reference (rare; kept for
        // completeness).
        return Ok(Operand::Mem(MemRef::absolute(v)));
    }
    Err(err(format!("cannot parse operand `{text}`")))
}

fn parse_memref(text: &str, line_no: usize) -> Result<MemRef, AsmError> {
    let err = |msg: String| AsmError::syntax(line_no, msg);
    let open = text.find('(').expect("caller checked");
    let close = text
        .rfind(')')
        .ok_or_else(|| err(format!("unbalanced parentheses in `{text}`")))?;
    let disp_text = text[..open].trim();
    let disp = if disp_text.is_empty() {
        0
    } else {
        parse_int(disp_text).ok_or_else(|| err(format!("invalid displacement `{disp_text}`")))?
    };
    let inner = &text[open + 1..close];
    let parts: Vec<&str> = inner.split(',').map(str::trim).collect();
    let parse_reg = |s: &str| -> Result<Option<Reg>, AsmError> {
        if s.is_empty() {
            Ok(None)
        } else {
            s.parse::<Reg>()
                .map(Some)
                .map_err(|_| err(format!("unknown register `{s}`")))
        }
    };
    match parts.as_slice() {
        [base] => Ok(MemRef {
            base: parse_reg(base)?,
            index: None,
            scale: 1,
            disp,
        }),
        [base, index] => Ok(MemRef {
            base: parse_reg(base)?,
            index: parse_reg(index)?,
            scale: 1,
            disp,
        }),
        [base, index, scale] => {
            let scale: u8 = scale
                .parse()
                .map_err(|_| err(format!("invalid scale `{scale}`")))?;
            if ![1, 2, 4, 8].contains(&scale) {
                return Err(err(format!("scale must be 1, 2, 4 or 8, found {scale}")));
            }
            Ok(MemRef {
                base: parse_reg(base)?,
                index: parse_reg(index)?,
                scale,
                disp,
            })
        }
        _ => Err(err(format!("invalid memory reference `{text}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 2 of the paper, verbatim (modulo the implicit one-operand
    /// shift which we also accept).
    const FIGURE2: &str = r#"
sum:    cmpq    $2, %rsi        # n>2
        ja      .L2             # if (n>2) goto .L2
        movq    (%rdi), %rax    # rax=t[0]
        jne     .L1             # if (n!=2) goto .L1
        addq    8(%rdi), %rax   # rax+=t[1]
.L1:    ret                     # return (rax)
.L2:    pushq   %rbx            # save rbx
        pushq   %rdi            # save t
        pushq   %rsi            # save n
        shrq    %rsi            # rsi=n/2
        call    sum             # sum(t,n/2)
        popq    %rbx            # rbx=n
        pushq   %rbx            # save n
        subq    $8, %rsp        # allocate temp
        movq    %rax, 0(%rsp)   # temp=sum(t,n/2)
        leaq    (%rdi,%rsi,8), %rdi # rdi=&t[n/2]
        subq    %rsi, %rbx      # rbx=n-n/2
        movq    %rbx, %rsi      # rsi=n-n/2
        call    sum             # sum(&t[n/2],n-n/2)
        addq    0(%rsp), %rax   # rax+=temp
        addq    $8, %rsp        # free temp
        popq    %rsi            # restore rsi (n)
        popq    %rdi            # restore rdi (t)
        popq    %rbx            # restore rbx
        ret                     # return rax
"#;

    #[test]
    fn figure2_assembles_to_25_instructions() {
        let p = assemble(FIGURE2).unwrap();
        // Figure 2 has 26 numbered lines; line 1 is the `sum:` label carrying
        // the first instruction, and `.L1:`/`.L2:` share lines with
        // instructions, so the paper's listing holds 25 instructions.
        assert_eq!(p.len(), 25);
        assert_eq!(p.labels()["sum"], 0);
        assert_eq!(p.labels()[".L1"], 5);
        assert_eq!(p.labels()[".L2"], 6);
        // `shrq %rsi` became a shift-by-one.
        assert_eq!(
            p.get(9).unwrap(),
            &Inst::Alu {
                op: AluOp::Shr,
                src: Operand::Imm(1),
                dst: Operand::Reg(Reg::Rsi)
            }
        );
        // Both calls target `sum` (index 0).
        assert_eq!(p.get(10).unwrap().target().unwrap().resolved().unwrap(), 0);
        assert_eq!(p.get(18).unwrap().target().unwrap().resolved().unwrap(), 0);
    }

    #[test]
    fn data_directives() {
        let src = r#"
            t:   .quad 1, 2, 3
            buf: .zero 4
            main: movq $t, %rdi
                  movq $buf, %rsi
                  halt
        "#;
        let p = assemble(src).unwrap();
        assert_eq!(p.data_address("t"), Some(parsecs_isa::DATA_BASE));
        assert_eq!(p.data_address("buf"), Some(parsecs_isa::DATA_BASE + 24));
        assert_eq!(p.data_size(), 24 + 32);
        assert_eq!(p.entry(), 0);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let src = "
            # full line comment
            main: nop // trailing comment
            halt
        ";
        let p = assemble(src).unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn memory_operand_forms() {
        let src = "
            main:
            movq (%rdi), %rax
            movq 8(%rdi), %rax
            movq -16(%rbp), %rax
            movq (%rdi,%rsi,8), %rax
            movq 24(%rdi,%rsi,4), %rax
            halt
        ";
        let p = assemble(src).unwrap();
        let mems: Vec<MemRef> = p
            .insns()
            .iter()
            .filter_map(|i| match i {
                Inst::Mov {
                    src: Operand::Mem(m),
                    ..
                } => Some(*m),
                _ => None,
            })
            .collect();
        assert_eq!(mems.len(), 5);
        assert_eq!(mems[0], MemRef::base_disp(Reg::Rdi, 0));
        assert_eq!(mems[1], MemRef::base_disp(Reg::Rdi, 8));
        assert_eq!(mems[2], MemRef::base_disp(Reg::Rbp, -16));
        assert_eq!(mems[3], MemRef::base_index_scale(Reg::Rdi, Reg::Rsi, 8, 0));
        assert_eq!(mems[4], MemRef::base_index_scale(Reg::Rdi, Reg::Rsi, 4, 24));
    }

    #[test]
    fn all_jcc_mnemonics_parse() {
        for cond in Cond::ALL {
            let src = format!("main: j{} main\n halt", cond.suffix());
            let p = assemble(&src).unwrap();
            assert_eq!(
                p.get(0).unwrap(),
                &Inst::Jcc {
                    cond,
                    target: Target {
                        label: "main".into(),
                        index: Some(0)
                    }
                }
            );
        }
    }

    #[test]
    fn fork_and_endfork_parse() {
        let src = "
            sum: cmpq $2, %rsi
                 fork sum
                 endfork
        ";
        let p = assemble(src).unwrap();
        assert!(matches!(p.get(1).unwrap(), Inst::Fork { .. }));
        assert_eq!(p.get(2).unwrap(), &Inst::EndFork);
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = assemble("main: nop\n bogus %rax\n").unwrap_err();
        assert_eq!(err, AsmError::syntax(2, "unknown mnemonic `bogus`"));
        let err = assemble("main: movq %rax\n").unwrap_err();
        assert!(matches!(err, AsmError::Syntax { line: 1, .. }));
        let err = assemble("main: movq %zz, %rax\n").unwrap_err();
        assert!(matches!(err, AsmError::Syntax { line: 1, .. }));
        let err = assemble(".quad 1, 2\n").unwrap_err();
        assert!(matches!(err, AsmError::Syntax { line: 1, .. }));
    }

    #[test]
    fn undefined_label_is_an_isa_error() {
        let err = assemble("main: jmp nowhere\n").unwrap_err();
        assert!(matches!(err, AsmError::Isa(_)));
    }

    #[test]
    fn negative_and_hex_immediates() {
        let src = "main: movq $-8, %rax\n movq $0xff, %rbx\n halt";
        let p = assemble(src).unwrap();
        assert_eq!(
            p.get(0).unwrap(),
            &Inst::Mov {
                src: Operand::Imm(-8),
                dst: Operand::Reg(Reg::Rax)
            }
        );
        assert_eq!(
            p.get(1).unwrap(),
            &Inst::Mov {
                src: Operand::Imm(255),
                dst: Operand::Reg(Reg::Rbx)
            }
        );
    }

    #[test]
    fn extreme_immediates_do_not_overflow() {
        assert_eq!(parse_int("-9223372036854775808"), Some(i64::MIN));
        assert_eq!(parse_int("9223372036854775807"), Some(i64::MAX));
        assert_eq!(parse_int("0xffffffffffffffff"), Some(-1));
        assert_eq!(parse_int("-0x8000000000000000"), Some(i64::MIN));
    }

    #[test]
    fn split_operands_respects_parentheses() {
        assert_eq!(
            split_operands("(%rdi,%rsi,8), %rdi"),
            vec!["(%rdi,%rsi,8)", "%rdi"]
        );
        assert_eq!(split_operands("$2, %rsi"), vec!["$2", "%rsi"]);
        assert_eq!(split_operands(""), Vec::<&str>::new());
    }

    const SUM_FORK: &str = r#"
sum:    cmpq    $2, %rsi
        ja      .L2
        movq    (%rdi), %rax
        jne     .L1
        addq    8(%rdi), %rax
.L1:    endfork
.L2:    movq    %rsi, %rbx
        shrq    %rsi
        fork    sum
        subq    $8, %rsp
        movq    %rax, 0(%rsp)
        leaq    (%rdi,%rsi,8), %rdi
        subq    %rsi, %rbx
        movq    %rbx, %rsi
        fork    sum
        addq    0(%rsp), %rax
        addq    $8, %rsp
        endfork
"#;

    #[test]
    fn displayed_programs_roundtrip_through_the_assembler() {
        let p = assemble(SUM_FORK).unwrap();
        let q = assemble(&p.to_string()).unwrap();
        assert_eq!(p.insns(), q.insns());
        assert_eq!(p.labels(), q.labels());
    }

    #[test]
    fn displayed_programs_roundtrip_with_data() {
        let src =
            "t: .quad 4, 2, 6, 4, 5\nmain: movq $t, %rdi\n movq (%rdi), %rax\n out %rax\n halt";
        let p = assemble(src).unwrap();
        let q = assemble(&p.to_string()).unwrap();
        assert_eq!(p.insns(), q.insns());
        assert_eq!(p.data(), q.data());
        assert_eq!(p.entry(), q.entry());
    }
}
