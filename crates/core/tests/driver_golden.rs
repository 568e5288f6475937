//! Golden bytes of the resilient driver.
//!
//! Pins `sha256(serde_json::to_string(&report))` for every registry label
//! under three fault shapes — two spaced node failures, one system-wide
//! outage, two ranks failing in the same iteration — plus the
//! configuration knobs that fork the driver's charging (checkpoint
//! compression, a pinned frequency, throttled waiters, a non-zero initial
//! guess, a fault before the first checkpoint). A driver change that
//! keeps this file passing unchanged kept every `RunReport` byte.
//!
//! On a mismatch the test prints the whole recomputed table, ready to
//! paste — but only a PR that *means* to change numbers may do that.

use rsls_core::driver::{run, RunConfig};
use rsls_core::{sha256_hex, CompressionModel, DvfsPolicy, Scheme};
use rsls_faults::{FaultClass, FaultSchedule};
use rsls_sparse::generators::{banded_spd, BandedConfig};
use rsls_sparse::CsrMatrix;

const RANKS: usize = 8;
/// Short enough that the Young interval resolves to one iteration on the
/// memory tier and ten on the disk tier, so checkpoints (and CR-ML's
/// every-fourth disk copy) exist before each scheduled fault.
const MTBF_S: f64 = 8.0e-6;

fn system() -> (CsrMatrix, Vec<f64>) {
    let a = banded_spd(&BandedConfig::regular(240, 7, 0.02, 17));
    let ones = vec![1.0; a.nrows()];
    let mut b = vec![0.0; a.nrows()];
    a.spmv(&ones, &mut b);
    (a, b)
}

/// Every golden case as `(name, config)`, in table order.
fn cases(ff_iters: usize) -> Vec<(String, RunConfig)> {
    let shapes = [
        (
            "snf2",
            FaultSchedule::evenly_spaced(2, ff_iters, RANKS, FaultClass::Snf, 5),
        ),
        (
            "swo",
            FaultSchedule::single_at_iteration(ff_iters / 2, 0, FaultClass::Swo),
        ),
        (
            "pair",
            FaultSchedule::multiple_at_iteration(ff_iters / 2, &[2, 3], FaultClass::Snf),
        ),
    ];
    let base = |label: &str, shape: usize| {
        let scheme = Scheme::parse_label(label).expect("registry label");
        let mut cfg = RunConfig::new(scheme, RANKS).with_faults(shapes[shape].1.clone());
        cfg.mtbf_s = Some(MTBF_S);
        cfg.record_history = true;
        cfg
    };
    let mut out = Vec::new();
    for label in Scheme::KNOWN_LABELS {
        for (i, (shape, _)) in shapes.iter().enumerate() {
            out.push((format!("{label}/{shape}"), base(label, i)));
        }
    }
    // The generic compressor applies to the plain payload on any tier;
    // CR-LC's own codec overrides it.
    for (label, shape) in [
        ("CR-D", 0),
        ("CR-D", 1),
        ("CR-M", 0),
        ("CR-ML", 1),
        ("CR-LC", 0),
    ] {
        let mut cfg = base(label, shape);
        cfg.checkpoint_compression = Some(CompressionModel::lossy_default());
        out.push((format!("{label}/{}/compressed", shapes[shape].0), cfg));
    }
    for label in ["CR-ML", "LI (CG)"] {
        let mut cfg = base(label, 0);
        cfg.frequency_ghz = Some(1.8);
        out.push((format!("{label}/snf2/1.8GHz"), cfg));
    }
    for (label, shape) in [("LI (CG)", 0), ("LSI (CG)", 0), ("MNF", 0), ("MNF", 2)] {
        let cfg = base(label, shape).with_dvfs(DvfsPolicy::ThrottleWaiters);
        out.push((format!("{label}/{}/throttled", shapes[shape].0), cfg));
    }
    let mut cfg = base("FI", 0);
    cfg.initial_guess = Some(vec![0.5; 240]);
    out.push(("FI/snf2/x0=0.5".to_string(), cfg));
    // A fault before the first checkpoint: rollback falls to the initial
    // guess on every payload.
    for label in ["CR-D", "CR-LC", "ABFT-CR"] {
        for (shape, class) in [("snf", FaultClass::Snf), ("swo", FaultClass::Swo)] {
            let mut cfg = base(label, 0);
            cfg.faults = FaultSchedule::single_at_iteration(1, 4, class);
            out.push((format!("{label}/early-{shape}"), cfg));
        }
    }
    for (name, cfg) in &mut out {
        cfg.run_tag = format!("golden-{}", name.replace([' ', '(', ')', '/', '='], ""));
    }
    out
}

#[test]
fn every_label_under_every_fault_shape_keeps_its_bytes() {
    let (a, b) = system();
    let ff = run(&a, &b, &RunConfig::new(Scheme::FaultFree, RANKS));
    assert!(ff.converged);
    let actual: Vec<(String, String)> = cases(ff.iterations)
        .into_iter()
        .map(|(name, cfg)| {
            let report = run(&a, &b, &cfg);
            assert!(report.converged, "{name} must converge");
            let json = serde_json::to_string(&report).expect("RunReport serializes");
            (name, sha256_hex(json.as_bytes()))
        })
        .collect();
    let same = actual.len() == GOLDEN.len()
        && actual
            .iter()
            .zip(GOLDEN)
            .all(|((name, hash), (gname, ghash))| name == gname && hash == ghash);
    if !same {
        let table: String = actual
            .iter()
            .map(|(name, hash)| format!("    (\"{name}\", \"{hash}\"),\n"))
            .collect();
        let moved: Vec<&str> = actual
            .iter()
            .filter(|(name, hash)| !GOLDEN.iter().any(|(g, h)| g == name && h == hash))
            .map(|(name, _)| name.as_str())
            .collect();
        panic!("driver output changed for {moved:?}; recomputed table:\n{table}");
    }
}

#[rustfmt::skip]
const GOLDEN: &[(&str, &str)] = &[
    ("FF/snf2", "a4927e08e7c9210de8803647658a27dccceac8b177f05e37947b96d20574304d"),
    ("FF/swo", "ce3f466ea7345d87d46937e140c507b82578bdbc8450a986ef13ec2b0f402e17"),
    ("FF/pair", "d023f2ea6b837400c9021861e179e8d9b679d387a9f88c0d828744e558893b09"),
    ("RD/snf2", "6737fda89e045bb134e6bab99668078014cb90c0df38be5ceb8d296517c1a645"),
    ("RD/swo", "b399d99ceaee4deb0b2252f18f2064efd72e071062d3740a8ed6075affe3c9a5"),
    ("RD/pair", "7e0a3d42db9d70c61e980555304913479686b4268cebdea1221f5442d72269d1"),
    ("TMR/snf2", "1bfed98bd13a3d46fa0ee42bbe4f3a07329b0227debe50dc65d380c38da48af9"),
    ("TMR/swo", "1c1dac0eed2e22625e122cb586bb8dbb80c6f1b2a69d7683b459d18c76067545"),
    ("TMR/pair", "9ad4323e37308ec1c717aec5750bd74f585b1a81844c02beac590c6364641a4c"),
    ("CR-M/snf2", "e437be9e7826785bff396d69b601096b47a03abef25ae6234d0a303a400f566e"),
    ("CR-M/swo", "91fe8c5a4e7b65faf34af30dcded4b716ca45b315d7492e166113b7a739e0d03"),
    ("CR-M/pair", "a2b6a3986f0217e3b18e4fa66a1bfe1141662d0b54f07018c3fa2ff801dbb458"),
    ("CR-D/snf2", "6b432450dd55138392110b38dc7dc153a0be40697e07ceda3e7fe0b35c32cbb2"),
    ("CR-D/swo", "a01f72b04f881c8fb1c101df46ae7642265bb4294abc3e18edfd3c14c1a892b4"),
    ("CR-D/pair", "3fe9d0b560949c6e0c301788a639e2b729e674b07aaa055b5a4a8e3421c4c8a8"),
    ("CR-ML/snf2", "4be7644517c9636da0d590296902a1c9a0799c6c1e4a00d7cf3d56a2ad636956"),
    ("CR-ML/swo", "20cbd77461651a3bc49a9fff831117d31e2688a16227ea8191c4418ab8e4afe4"),
    ("CR-ML/pair", "c620dd274b9d4a984038d707f57c553a28e4791da98936671ddbc39fb7f2fd4b"),
    ("CR-LC/snf2", "4db79e0c9e871341d1e41f707a090423a5fcdbda4eb7b6bb7f9ebb418d7431b2"),
    ("CR-LC/swo", "9b3174a48c1dcfc2dfab4174e00b9a512581f2427b389c7ceb9111aa5df06418"),
    ("CR-LC/pair", "20c9ce08075fe7dbb2bb62c98515262ed763bdafcd03305ad5ddb9cc32d34396"),
    ("ABFT-CR/snf2", "e32bf6fa24d3286dd640943f12b65c383cad47aacc4c0a245e370a59efe616ef"),
    ("ABFT-CR/swo", "e4227a2327176b8dd7e82cdbf5d0f3bac4881e480f842483d41bd381532c35e9"),
    ("ABFT-CR/pair", "74eb0b8eabf98fd302f65756e58d8d065cae308795a13f21857ea1116eb334ef"),
    ("F0/snf2", "57af6d8de8cc78452de5f51210b2ba543f1dd23b1f04a32cb3c707e8f0485655"),
    ("F0/swo", "d53b9f1dcf3cb88f1dbdd16801a50d8ccf9c53cac9a558524f620b41f2691c34"),
    ("F0/pair", "a5061176ab2863aa2a9ff765b4ba2e6301a0635c5ffe73cee1bdb0f7a361e072"),
    ("FI/snf2", "c97cd0723266a913994a077ef292a5baf37611ced92849f4fed8d641301c5115"),
    ("FI/swo", "92eca9815e6202b20e06212dc14d7dbe2338284d52561c93d2225a0f7c9f00aa"),
    ("FI/pair", "468877599129fedcab2fada8a3353fa34d7a6977c3b714f8322fd1bb61c412c0"),
    ("LI (exact)/snf2", "182fb5b023c02e004d1e4e9aae4570a3e6081d162936c5e50d220536dfcc8919"),
    ("LI (exact)/swo", "86b8c5072c354d3aa397b2e14c39cf312c7b1a8cba3945c342595fa089ad18bd"),
    ("LI (exact)/pair", "54e57e09b7903aefdefa683b2d1f801e80ea4dd251511af108d4205c8dfe4c3b"),
    ("LI (CG)/snf2", "dc30ef04d11e2f0a62a893a489e1e72b8bbe485a24c5670a036a776072d1437d"),
    ("LI (CG)/swo", "1117ca169f735b72869e876135d4ad3eb3eb5fdf93131df14070438024b6a773"),
    ("LI (CG)/pair", "f500a0dce425b7738ce6b4bcc9145b533c6860a24853f714461b98ecbfa709af"),
    ("LSI (exact)/snf2", "7aa47822288b52d8b8a5aadb9a838c0302bbe7912162c32886b5512871a4fe64"),
    ("LSI (exact)/swo", "6419c84d2d6f0e2c764b1e47c258b9a0190ee41ac647fd41267ff9aa142c25c3"),
    ("LSI (exact)/pair", "4b87f723dc14e694d3595e6648635b7b4ef1d6a810b78c320b6a636c2703f0f2"),
    ("LSI (CG)/snf2", "32217f3d9d1d497cefda265340f16dff2c4c066cc56f0900dd4375d17df6d6f0"),
    ("LSI (CG)/swo", "d3c5afefdc5ac523db9fee18e94c21e4bb430fff9c9d4a1df99d2002875cb412"),
    ("LSI (CG)/pair", "651063e11193a5603c8a098c993c0f5f64f342dddd41055ef0cc71ee6c343774"),
    ("MNF/snf2", "c83d7632868c9a033bdd523238c4ac51322a9e2746d729cfe64906fa1e686993"),
    ("MNF/swo", "bfc799da35ab80b607d5d44f7a97363f865aa97502a74145ef44687fc3836735"),
    ("MNF/pair", "253ea803b54fffe1cde14fb250379bdb7db5b4fc0ed31a271484fa73bb4733cd"),
    ("MNF (exact)/snf2", "fce5b1e9fcb08ef01897ea9d1a3e62284e28346f7c47be6f33d52ee3c6fbc7ac"),
    ("MNF (exact)/swo", "945be149a4fa4acddb4b9d9510f9d59dd23612b1f867dd581702d10641620bce"),
    ("MNF (exact)/pair", "1130ef3d86dc817bfa9905da1b645287030dacc8b313e9a08d1f66049a8a48a4"),
    ("CR-D/snf2/compressed", "4e2e764dbc54278174c14c1cafa94b42c8db3c44ac83d58b17d143216241f7b4"),
    ("CR-D/swo/compressed", "0b1cad6800cfa7eaaf63563af2cf68129ca314deb1a4dd10e7803a70c36dc636"),
    ("CR-M/snf2/compressed", "2f1908e0e487fd438814d5ac7c182542964563a955a29698d62f2866b8242d99"),
    ("CR-ML/swo/compressed", "8e41e521474e19251b327dc5cc8aec2de060c63f71820cd4fed8e60bd76ee070"),
    ("CR-LC/snf2/compressed", "4db79e0c9e871341d1e41f707a090423a5fcdbda4eb7b6bb7f9ebb418d7431b2"),
    ("CR-ML/snf2/1.8GHz", "32a9d84139477226f86696263447ac8126c5b5f8c59c33a5591671d87e8dcf76"),
    ("LI (CG)/snf2/1.8GHz", "a4625b9d6e33665575e34719400e0c1c3933f781f3f4a0dfa82dc29621565410"),
    ("LI (CG)/snf2/throttled", "2f433a01eb43f284c66d3b87cfdc2a60494e49721fb5cbc9cb6bc3c1215dfe8b"),
    ("LSI (CG)/snf2/throttled", "600653ff0258694943178fee690b668fbd1815d1783ced8bbbc13ce94d90c304"),
    ("MNF/snf2/throttled", "93f24451bb7a034d54fade6ab378a4c5f683bd48b84945c5dc160f95ade1ee4c"),
    ("MNF/pair/throttled", "205ffaaba25542a60000f7ea6552997ccfd269d29509cb7f45072597e20f69c4"),
    ("FI/snf2/x0=0.5", "8aca456c9a5f26dc5e0d5d8aadc4db05ff336e89ddad60b5c7180328ec143701"),
    ("CR-D/early-snf", "0d737f3e78d41d709197218061f6ffa30500a3f44372a4a6fbfa79122da83cab"),
    ("CR-D/early-swo", "a8b12c136958d0160a7306fefa0a92c47fa84ecf14bebed7344fcf4cefdc0a44"),
    ("CR-LC/early-snf", "d33214751bb28f92f62b7d7bad5ad86fc3ebeaffe1ce73741b9240fea211df64"),
    ("CR-LC/early-swo", "117f57218c702dd4036cbc1cffb1c498d077bcae69ab25803c11c855839abd77"),
    ("ABFT-CR/early-snf", "dabeb5d59f7720c8d148c7f67d0eb75a29f7b5d64a8cf8cde6b1ee7999d9715e"),
    ("ABFT-CR/early-swo", "dddb4915d76fa014d72cb60e5daa5a115462a3a2da35b52f209857d57af4cc3c"),
];
