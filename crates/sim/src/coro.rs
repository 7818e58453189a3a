//! Stackful coroutines: every simulated process runs on a stack of its
//! own, on the OS thread that drives its [`crate::Simulation`], and
//! passing the baton is a switch of stack pointers.
//!
//! A [`Context`] is somewhere code can be suspended: the driver (which
//! runs on the thread's own stack) or a process (on a stack mapped by
//! [`Context::start`]). [`switch`] saves the running context's
//! callee-saved registers, MXCSR and x87 control word on its stack,
//! records its stack pointer in its `Context`, and loads the target's.
//!
//! This module holds all of the simulator's `unsafe` code. What makes it
//! sound is the kernel's baton protocol, which every caller keeps, and
//! which the safe functions here check where a slip would be undefined
//! behaviour:
//! - exactly one context of a simulation runs at a time, and only it
//!   switches, naming its own `Context` as `from` (checked: a running
//!   context's slot is empty);
//! - a [`Target`] is taken from a *suspended* context and switched to
//!   once (checked: taking empties the slot, and `Target` is not
//!   `Clone`);
//! - a coroutine's body catches its own panics and returns the context to
//!   switch to when it is done; it is then never switched to again, and
//!   whoever runs next frees its stack (a coroutine never frees its own);
//! - all contexts of a simulation run on one OS thread (`Simulation` is
//!   `!Send`): code may keep a thread-local's address across a call, so a
//!   coroutine must never resume on another thread.
//!
//! A stack is 2 MiB (what std gives a spawned thread), reserved with
//! `MAP_NORESERVE` and touched page by page, above one `PROT_NONE` guard
//! page. Overflowing it is a plain SIGSEGV: std's "stack overflow"
//! message knows only the thread's own guard page.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "amoeba-sim switches stacks in crates/sim/src/coro.rs, written for x86_64 Linux only: \
     port that module to this target"
);

use std::cell::Cell;

/// Usable bytes of a process stack.
const STACK_BYTES: usize = 2 << 20;
/// The inaccessible page below it.
const GUARD_BYTES: usize = 4096;
/// One mapping: guard page, then stack.
const MAP_BYTES: usize = GUARD_BYTES + STACK_BYTES;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x2_0000;

/// The floating-point control state a fresh coroutine starts with, as
/// the System V ABI has it at process start: every exception masked,
/// round to nearest, and (x87) extended precision.
const MXCSR_DEFAULT: usize = 0x1F80;
const X87_CW_DEFAULT: usize = 0x037F;

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
    /// Saves the running context at `*save`, resumes the one saved at
    /// `load`, and hands it `pass`: the value its own call returns.
    fn amoeba_sim_coro_switch(save: *mut usize, load: usize, pass: usize) -> usize;
    /// Where a fresh stack's first switch lands; calls [`coro_entry`].
    fn amoeba_sim_coro_start();
}

// The switch pushes rbp, rbx and r12–r15, then MXCSR and the x87 control
// word in one more 8-byte slot, so a saved stack pointer is 16-byte
// aligned and points at that slot. `Context::start` lays out the same
// frame by hand, with `amoeba_sim_coro_start` as the return address and
// the body and stack base in r12 and r13. The start routine has no
// caller: `.cfi_undefined rip` ends every backtrace there.
std::arch::global_asm!(
    ".text",
    ".p2align 4",
    ".globl amoeba_sim_coro_switch",
    ".type amoeba_sim_coro_switch, @function",
    "amoeba_sim_coro_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "sub rsp, 8",
    "stmxcsr dword ptr [rsp]",
    "fnstcw word ptr [rsp + 4]",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "ldmxcsr dword ptr [rsp]",
    "fldcw word ptr [rsp + 4]",
    "add rsp, 8",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "mov rax, rdx",
    "ret",
    ".size amoeba_sim_coro_switch, . - amoeba_sim_coro_switch",
    ".p2align 4",
    ".globl amoeba_sim_coro_start",
    ".type amoeba_sim_coro_start, @function",
    "amoeba_sim_coro_start:",
    ".cfi_startproc",
    ".cfi_undefined rip",
    "mov rdi, r12",
    "mov rsi, r13",
    "mov rdx, rax",
    "call {entry}",
    "ud2",
    ".cfi_endproc",
    ".size amoeba_sim_coro_start, . - amoeba_sim_coro_start",
    entry = sym coro_entry,
);

/// What a coroutine runs: the process body, returning where to go.
type Body = Box<dyn FnOnce() -> Target>;

thread_local! {
    /// The running context's ambient words (see [`ambient`]).
    static AMBIENT: Cell<[u64; 2]> = const { Cell::new([0; 2]) };
    /// Stacks mapped on this thread and not yet unmapped.
    static MAPPED: Cell<usize> = const { Cell::new(0) };
}

/// The calling process's *ambient* words: two `u64`s of per-process
/// state that the simulator saves and restores at every switch, so each
/// process — and the driver — reads back only what it set itself. A
/// process starts with `[0, 0]`. This is for a layer's context that
/// cannot practically be passed through every call (telemetry's current
/// trace context). A kernel handler sees the words of whichever process
/// is dispatching it.
pub fn ambient() -> [u64; 2] {
    AMBIENT.get()
}

/// Sets the calling process's [`ambient`] words; returns the old ones.
pub fn set_ambient(words: [u64; 2]) -> [u64; 2] {
    AMBIENT.replace(words)
}

/// Process stacks mapped by the simulations driven on the calling thread
/// and not yet freed: a probe for tests (the heap counters of a counting
/// allocator do not see `mmap`).
pub fn mapped_stacks() -> usize {
    MAPPED.get()
}

/// Where a context's stack pointer was saved when it last switched
/// away; 0 while it runs (or once it has finished). A new one is the
/// context of code already running on a stack of its own (the driver's).
#[derive(Debug, Default)]
pub(crate) struct Context {
    sp: Cell<usize>,
}

/// A suspended context, taken to be switched to: its saved stack
/// pointer. Not `Clone`: a suspension is resumed once.
#[derive(Debug)]
pub(crate) struct Target(usize);

impl Context {
    /// Maps a stack and readies `body` to run on it the first time this
    /// context is switched to. `body` must not unwind; it returns the
    /// context to switch to when it is done. A context that is started
    /// but never switched to leaks its stack and its body.
    pub fn start(&self, body: impl FnOnce() -> Target + 'static) {
        // SAFETY: a new private anonymous mapping; no existing memory is
        // named or touched.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                MAP_BYTES,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        assert!(base as isize != -1, "no address space for a process stack");
        // SAFETY: the first page of the mapping just made, which nothing
        // else refers to.
        let guarded = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
        assert_eq!(guarded, 0, "cannot protect a process stack's guard page");
        MAPPED.set(MAPPED.get() + 1);
        let body: Box<Body> = Box::new(Box::new(body));
        // What the switch pops, bottom up: the control words, r15, r14,
        // r13 (the stack, to free when done), r12 (the body), rbx, rbp
        // and the address it returns to. Above that, the start routine's
        // own return address (none) and padding to 16 bytes.
        let frame: [usize; 10] = [
            MXCSR_DEFAULT | X87_CW_DEFAULT << 32,
            0,
            0,
            base as usize,
            Box::into_raw(body) as usize,
            0,
            0,
            amoeba_sim_coro_start as *const () as usize,
            0,
            0,
        ];
        let sp = base as usize + MAP_BYTES - std::mem::size_of_val(&frame);
        // SAFETY: the frame's 80 bytes are the top of the stack just
        // mapped, above its guard page; `sp` is page-aligned minus 80, so
        // 16-byte aligned as the switch expects.
        unsafe { (sp as *mut [usize; 10]).write(frame) };
        let old = self.sp.replace(sp);
        assert_eq!(old, 0, "a context is started once");
    }

    /// Takes this suspended context, to switch to it next.
    ///
    /// # Panics
    ///
    /// If it is not suspended: it runs, has finished, or was taken
    /// already.
    pub fn target(&self) -> Target {
        let sp = self.sp.replace(0);
        assert_ne!(sp, 0, "only a suspended context can be switched to");
        Target(sp)
    }
}

/// Suspends the running context `from` and resumes `to`; returns once
/// something switches back to `from`.
pub(crate) fn switch(from: &Context, to: Target) {
    assert_eq!(from.sp.get(), 0, "only the running context switches away");
    let ambient = AMBIENT.get();
    // SAFETY: `from` is running (its slot is empty), so its slot may take
    // the saved stack pointer; `to` holds the stack pointer of a
    // suspended context, saved by this same switch (or laid out by
    // `Context::start` to match) and taken once. All contexts of a
    // simulation run on this thread (`Simulation` is `!Send`, `Ctx` is
    // `!Sync`). Both stacks stay mapped: a stack is freed only once its
    // coroutine has finished.
    let finished = unsafe { amoeba_sim_coro_switch(from.sp.as_ptr(), to.0, 0) };
    AMBIENT.set(ambient);
    unmap(finished);
}

/// The end of a coroutine: resumes `to` for good, handing it `stack`
/// (this coroutine's own) to free.
fn finish(to: Target, stack: usize) -> ! {
    let mut never_resumed = 0;
    // SAFETY: as in `switch`. Nothing can switch back here: the saved
    // stack pointer goes to a local that dies with the stack, and this
    // coroutine's `Context` stays empty, so it is never a target again.
    unsafe { amoeba_sim_coro_switch(&mut never_resumed, to.0, stack) };
    std::process::abort()
}

/// Frees the stack of a coroutine that has just finished (0: none did).
fn unmap(stack: usize) {
    if stack == 0 {
        return;
    }
    // SAFETY: `stack` is the base of a mapping of `MAP_BYTES` made by
    // `Context::start`, whose coroutine has switched away for good; no
    // live frame or reference points into it.
    let unmapped = unsafe { munmap(stack as *mut u8, MAP_BYTES) };
    assert_eq!(unmapped, 0, "cannot unmap a process stack");
    MAPPED.set(MAPPED.get() - 1);
}

/// A fresh coroutine's first frame: frees the stack of whichever
/// coroutine just finished into it, runs `body`, and finishes.
extern "C" fn coro_entry(body: *mut Body, stack: usize, finished: usize) -> ! {
    unmap(finished);
    AMBIENT.set([0; 2]);
    // SAFETY: `body` came from `Box::into_raw` in `Context::start` and
    // was written into this stack's first frame alone; a coroutine is
    // entered once.
    let body = unsafe { Box::from_raw(body) };
    let to = body();
    finish(to, stack)
}
