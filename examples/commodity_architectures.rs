//! §3.2 made executable: why the commodity SmartNIC architectures leak.
//!
//! Walks the LiquidIO MIPS segment model (SE-S and SE-UM modes) and the
//! BlueField TrustZone model, showing exactly which isolation property
//! each one is missing — the gaps S-NIC's design closes.
//!
//! Run with: `cargo run --release --example commodity_architectures`

use snic::core::archs::mips::{LiquidIoMode, MipsCore, XKPHYS_BASE};
use snic::core::archs::trustzone::{TrustZoneMachine, World};
use snic::mem::pagetable::PageMapping;
use snic::mem::tlb::Tlb;
use snic::types::{ByteSize, CoreId, NfId};

fn user_tlb() -> Tlb {
    let mut t = Tlb::new(CoreId(0), 4);
    t.install(PageMapping {
        va: 0,
        pa: 0x100_0000,
        page_size: 2 << 20,
        writable: true,
    })
    .expect("install");
    t.lock();
    t
}

fn main() {
    println!("=== Marvell LiquidIO: MIPS segments ===\n");

    // SE-S: no kernel, everything privileged, full xkphys.
    let ses = MipsCore::new(CoreId(0), LiquidIoMode::SeS, user_tlb());
    let victim_secret_pa = 0x0dea_d000u64;
    let pa = ses
        .translate(XKPHYS_BASE + victim_secret_pa, true)
        .expect("xkphys");
    println!(
        "SE-S mode: a function named physical address {pa:#x} through xkphys — \
         it can read or corrupt ANY other function's state."
    );

    // SE-UM with xkphys enabled: same exposure, now with a kernel.
    let seum_open = MipsCore::new(
        CoreId(1),
        LiquidIoMode::SeUm {
            xkphys_enabled: true,
        },
        user_tlb(),
    );
    assert!(seum_open
        .translate(XKPHYS_BASE + victim_secret_pa, true)
        .is_ok());
    println!("SE-UM (xkphys on): identical exposure — the kernel just gave it away.");

    // SE-UM with xkphys disabled: no flat addressing, but the kernel
    // still owns the function's mappings.
    let seum_closed = MipsCore::new(
        CoreId(2),
        LiquidIoMode::SeUm {
            xkphys_enabled: false,
        },
        user_tlb(),
    );
    assert!(seum_closed
        .translate(XKPHYS_BASE + victim_secret_pa, true)
        .is_err());
    println!(
        "SE-UM (xkphys off): flat addressing blocked — but the function still \
         cannot protect itself from a buggy or malicious NIC OS.\n"
    );

    println!("=== Mellanox BlueField: TrustZone worlds ===\n");
    let mut tz = TrustZoneMachine::new(ByteSize::mib(32));
    tz.load_trustlet(NfId(1), 0x10_000, b"trustlet: tenant TLS keys")
        .expect("load");

    // Normal world cannot touch secure memory — the part that works.
    tz.smc();
    assert_eq!(tz.world(), World::Normal);
    let mut buf = [0u8; 8];
    assert!(tz.read(0x10_000, &mut buf).is_err());
    println!("normal world -> trustlet state: DENIED (TrustZone working as designed)");

    // But the secure-world management OS sees everything — the gap.
    tz.smc();
    assert_eq!(tz.world(), World::Secure);
    let (base, len) = tz.trustlet_region(NfId(1)).expect("region");
    let mut state = vec![0u8; len as usize];
    tz.read(base, &mut state).expect("secure world reads all");
    println!(
        "secure-world OS -> trustlet state: \"{}\"",
        String::from_utf8_lossy(&state)
    );
    println!(
        "\nBlueField's residual weakness (§3.2): the function has no protection \
         from the secure-world OS itself — exactly what S-NIC's denylist fixes \
         (see `snicctl exp attacks`, attack 4)."
    );
}
