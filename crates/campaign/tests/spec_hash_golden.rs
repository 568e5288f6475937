//! Golden bytes of the spec serializer.
//!
//! Every `units/*.ref` pointer in a store is named by
//! `UnitSpec::content_hash`, the sha256 of the spec's `serde_json`
//! bytes. A serializer change that moved those bytes would leave every
//! stored unit cold while the report goldens still passed, so this file
//! pins `RunConfig::spec_hash` and `UnitSpec::content_hash` for every
//! registry label under both DVFS policies, plus one faulted schedule.
//!
//! On a mismatch the test prints the whole recomputed table, ready to
//! paste — but only a PR that *means* to change spec bytes may do that.

use rsls_campaign::{UnitSpec, ENGINE_VERSION};
use rsls_core::{DvfsPolicy, RunConfig, Scheme};
use rsls_faults::{FaultClass, FaultSchedule};

const RANKS: usize = 8;

fn spec(label: &str, config: RunConfig) -> UnitSpec {
    UnitSpec {
        experiment: "golden".into(),
        unit: format!("m/{label}"),
        matrix: "m".into(),
        matrix_fingerprint: 0x0123_4567_89ab_cdef,
        scale: "quick".into(),
        engine_version: ENGINE_VERSION,
        config,
    }
}

/// Every golden case as `(name, spec)`, in table order.
fn cases() -> Vec<(String, UnitSpec)> {
    let mut out = Vec::new();
    for label in Scheme::KNOWN_LABELS {
        let scheme = Scheme::parse_label(label).expect("registry label");
        for dvfs in [DvfsPolicy::OsDefault, DvfsPolicy::ThrottleWaiters] {
            let name = format!("{label}/{dvfs:?}");
            let config = RunConfig::new(scheme, RANKS).with_dvfs(dvfs);
            out.push((name, spec(label, config)));
        }
    }
    let faults = FaultSchedule::evenly_spaced(3, 120, RANKS, FaultClass::Snf, 5);
    let mut config =
        RunConfig::new(Scheme::parse_label("CR-D").expect("label"), RANKS).with_faults(faults);
    config.mtbf_s = Some(8.0e-6);
    config.record_history = true;
    out.push(("CR-D/snf3".to_string(), spec("CR-D", config)));
    out
}

#[test]
fn every_label_keeps_its_spec_bytes() {
    let actual: Vec<(String, String, String)> = cases()
        .into_iter()
        .map(|(name, spec)| (name, spec.config.spec_hash(), spec.content_hash()))
        .collect();
    let same = actual.len() == GOLDEN.len()
        && actual
            .iter()
            .zip(GOLDEN)
            .all(|((n, c, u), (gn, gc, gu))| n == gn && c == gc && u == gu);
    if !same {
        let table: String = actual
            .iter()
            .map(|(n, c, u)| format!("    (\"{n}\", \"{c}\", \"{u}\"),\n"))
            .collect();
        panic!("spec bytes changed; recomputed table:\n{table}");
    }
}

#[rustfmt::skip]
const GOLDEN: &[(&str, &str, &str)] = &[
    ("FF/OsDefault", "fbf6bfd7a8a4a3cd200931090bfc0fcb8a5646388b28072d3b9c3debcbbb8e32", "1b3cb26820648c22384d2ee57bd9df22a5e08bda16f8ba5f8b26e7670c2f394b"),
    ("FF/ThrottleWaiters", "4f0231a76d3a0a664ae457d0df346191d8b76f22ed885654982071fec1758fd2", "08f2cea433c9cf1a2c311fb052fe7ebb5b6de29fbee8d59e5438d66f7ab05085"),
    ("RD/OsDefault", "0c9271bf0ba26875cdac381ea9700c4dc62307e7f43b26519dd896fad2a833ac", "7d8329356839d21229778213c69b29e9dd01d33398f9f74724c0be0ffa82129e"),
    ("RD/ThrottleWaiters", "18d7105a0c25cd12c6dc3c4aef3bf15add447244c864452e186fc378c2f9429b", "3c0e2cfea04e4e82f5e9e9512ccd3340d7b65618a458d7e7699bddc128ab4534"),
    ("TMR/OsDefault", "be20f4a8fb8cfb72591a849205b41bbb2db7c63706876820fb02afac3ee56cc0", "eba512421b34ba9bb3b586062295bb1241291506545573315a69c7d735e73489"),
    ("TMR/ThrottleWaiters", "604232932a1fab81934102f4a5f8a538b57f59a93f93a69ee326ba52080f5754", "13524e67427ac9eeb663a761b68a9e9380a5f6ef3dfd0870e1ad271b75527d75"),
    ("CR-M/OsDefault", "ccb9ff4ed46596eaf31665c0697cf3af72ef02558cbde7811997694dba36d03e", "70afaf7d1ea3e4efacc2e1a4074fd0f8d65d4ada731735b6c18513f8042d8284"),
    ("CR-M/ThrottleWaiters", "34d6d4516f7c1b236a7127b9cc685e304249b99b635a95c80b1bdaec124ee9ff", "75b6edb9c8b6e6b228e261773c9de33e6a718dafb9ad0dd7ad8d1b414672f735"),
    ("CR-D/OsDefault", "5b1a0bd1d1e02f1dca8cc95e74296e9f1f533af2b1b7e45afcd049d6bc1826bd", "bccc1925bbe3dab80fa31b9897217c960fb07ce5af5ce1fe78dc7641e5899a40"),
    ("CR-D/ThrottleWaiters", "d9ff042664b50c9259dbecce1ccd2319069b26e172ccc93f9cc305d908241bb7", "e5b625381c5fe8375e447091ecffbcdfe82d939fe785e8fd44ba50d084321964"),
    ("CR-ML/OsDefault", "dcdc2959732970d0c1268d28c582072feb1009ef2eed88f10f1a999a9d63c528", "7d5197da1f30ecf5f4c7e12c218d50e7bf84184b2805067702bd90ec67a31675"),
    ("CR-ML/ThrottleWaiters", "5859bde96c0178a43f669cb60c3f931b8d9cefb2a059068a0174de0e9900a79c", "5ace0fed5e7a693da4817f98999b1ee92a4c023a4be1618252fc1026a05b3ff3"),
    ("CR-LC/OsDefault", "6087ac7789e1c8372177333f8442de9f82cbf97c32bc4382515f106060d82273", "c3582dadd091df1a67baf810df909dcc67e5fa3b33c3d071136c8028c4e2b2f0"),
    ("CR-LC/ThrottleWaiters", "b62a7660c72a071b1a25873ac043f21db17726b211984bd178556f23cd4aefba", "99e92cf849707b100aa82def9146b929d037a26878a6c3b738d1a10511170725"),
    ("ABFT-CR/OsDefault", "6afef7b73661f610d13ce0b5d29a7bd7f94eae3e274857777f7a57a3f582ae2a", "45529e2af176a1ccda634bbe80b7658835fa44a3c9673b61a9177fd10a542e0d"),
    ("ABFT-CR/ThrottleWaiters", "a299f8e78416f74b1e33f0451b2f9b3f5baa2d4516e5cbb1456d5eaa44c86755", "8f765814d52f9db07cec2093303242c0e9075b126f8747bba4610fc019213834"),
    ("F0/OsDefault", "9236bda875ef4bea79f8afb28c47b67566d673cff4b685713bb301164c2a48a6", "b94a1f7b4cf8a210ed40ab193345e7df6fb2ea990452aef46cab1e79a4bb505e"),
    ("F0/ThrottleWaiters", "dafbf5cfc36fbf661294161f2117c094a5b5cb8b6afbaf9cb0e60bc3423e9cb7", "4c05a5c99978c8bf37cb07a6b2b0a607f50e9e485034b49de01a707bd13ae0de"),
    ("FI/OsDefault", "5f5fb92fd8cfcfb2ce9131a093d3f90def903cfc6fd9b22a9b1d4367fb5fe774", "5132933ca73653655afa5f75b9c6524adb4fca7abe34a469d866fc3ede2166a7"),
    ("FI/ThrottleWaiters", "775eca2e1b0f46ed6e593304dbf8269d05d2d9e1367d4b5fb183839ff45a9055", "2cd643115f9800521f1c3d5dcc026fae1ea4037e2f472e823feda066ddb06163"),
    ("LI (exact)/OsDefault", "06d4668c7872d129179a2d9a4468f31b3149ead212e81ede59380ccd8c3b5759", "d0085ea659797f43e47c3f830b4dfc6a1cd7dab0bbd1776c205ca29c6012b768"),
    ("LI (exact)/ThrottleWaiters", "2bfbe36c76bf666b93949a679c3160192503c7fdd30c7a6c2588335a0ffd7dff", "f5b46e231750ac7c82f8b44193326bbfe232042fae06b84c95f6f3714010d0bf"),
    ("LI (CG)/OsDefault", "bdb92fc4ccb940f42cc79434eb69932e4489dae8ec9ece96a3ff4bfdf5fc4884", "e4af7be3a50b1375e9339530852b5330871cc63c9c7857d13ee8a35dea8ed930"),
    ("LI (CG)/ThrottleWaiters", "04f534a56293c5f73306abcc122de96f57871d55fa426b4a9db4c0e5eeebace9", "cdc13c2112387deb9262b265d3163cadb285f3188abf340a262415be770bf8e8"),
    ("LSI (exact)/OsDefault", "921a2415b8dff402cadcf5df10d19ebc8df21057941b96bc2ec555a7819ff887", "2c8c1a8adb01250e31111986bdb2ba6d254a7ddcf399faa9bda968d7662f5ba2"),
    ("LSI (exact)/ThrottleWaiters", "57df6219fe854d72ff2cac240a3ef91965ad978066e14e73b42ed2e4461314dc", "09836335fb448d684195549be20aa6f9b4c5344bb06e99f44818e640c959c5b0"),
    ("LSI (CG)/OsDefault", "889cdd64f5bcf7c968697e6105550b607d8989ecfbd89335fd701af355d8cfc9", "7347bf48e76d561dc9d9d546e982edd5baa303071a61a9f70c9de110650b4168"),
    ("LSI (CG)/ThrottleWaiters", "a7b97154dd525616d2888dfeaaae88cb49d1b97c22fefd620ade7a6ca56459ca", "d43c0686cf7327b03fe96b771f78f4dc82fecf31d64eb798d116e24a1c238c48"),
    ("MNF/OsDefault", "a4ac7c4115681043d200d21bbde7180c2f8c45589e4c0f9a00672f6bff78e0a6", "4bdcf6f3253ad4b07d8f94f2718ecb974f992eec7d3206f0361a4793c9b413ec"),
    ("MNF/ThrottleWaiters", "9ddf4c3e2ab40971258b26730e0826b97a047ea26eb47be539b9880d7831c5fb", "8a7d383cad089ad6505eb78190bb97b4616b6761533efd5fac8921f7f27b043b"),
    ("MNF (exact)/OsDefault", "2a82aabd32c6f1860f84dce7e17f6a0785d6b8e98a5106c34be5933aab5e93c5", "5b31b13801eef32c2d4057f505f7e06c5b97831615fc14e50cd1d755520e6ce0"),
    ("MNF (exact)/ThrottleWaiters", "7c716e5ff50e19039012330f60d341fa68f5c306e2bcbc761e078c15e6a1e45c", "d0a2816f91186f035694a5da5afac0ab44061f47f12e797324caf4b4ab7f2632"),
    ("CR-D/snf3", "7e39814508c3b906fd240e82cc99e92f02e0ab1768f69da0d649c74497ef18ef", "147f71328b2513cec2bbaad612d6989f29dcaf31219f73f229df4d445552a2d4"),
];
